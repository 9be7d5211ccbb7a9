"""Unit tests for the recovery-policy decision layer."""

import pytest

from repro.core.recovery import (
    RECOVERY_POLICIES,
    FailureEvent,
    RecoveryAction,
    ReplanRemaining,
    ResubmitFresh,
    RetrySameVM,
    recovery_policy,
)
from repro.errors import SchedulingError


def _failure(attempt=1, reason="task", vm_alive=True):
    return FailureEvent(
        task_id="t1",
        vm_id=0,
        attempt=attempt,
        time=100.0,
        reason=reason,
        vm_alive=vm_alive,
    )


class TestRecoveryAction:
    def test_kind_validated(self):
        with pytest.raises(SchedulingError):
            RecoveryAction("panic")

    def test_delay_validated(self):
        with pytest.raises(SchedulingError):
            RecoveryAction("retry", delay=-1.0)

    @pytest.mark.parametrize("delay", [float("nan"), float("inf")])
    def test_delay_must_be_finite(self, delay):
        with pytest.raises(SchedulingError, match="finite"):
            RecoveryAction("retry", delay)


class TestBackoff:
    def test_capped_exponential(self):
        p = RetrySameVM(backoff_base=30.0, backoff_factor=2.0, backoff_cap=600.0)
        assert p.backoff(1) == 30.0
        assert p.backoff(2) == 60.0
        assert p.backoff(3) == 120.0
        assert p.backoff(6) == 600.0  # 30 * 2^5 = 960 hits the cap
        assert p.backoff(50) == 600.0

    def test_parameters_validated(self):
        with pytest.raises(SchedulingError):
            RetrySameVM(max_attempts=0)
        with pytest.raises(SchedulingError):
            RetrySameVM(backoff_factor=0.5)
        with pytest.raises(SchedulingError):
            RetrySameVM(backoff_base=-1.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"backoff_base": float("nan")},
            {"backoff_base": float("inf")},
            {"backoff_factor": float("nan")},
            {"backoff_cap": float("nan")},
        ],
        ids=["base-nan", "base-inf", "factor-nan", "cap-nan"],
    )
    def test_non_finite_parameters_rejected(self, kwargs):
        """Caught at construction, not as an unschedulable event time."""
        with pytest.raises(SchedulingError, match="backoff"):
            RetrySameVM(**kwargs)


class TestRetrySameVM:
    def test_retries_on_alive_vm(self):
        action = RetrySameVM().on_task_failure(_failure(attempt=1))
        assert action.kind == "retry"
        assert action.delay == 30.0

    def test_falls_back_to_resubmit_when_vm_dead(self):
        action = RetrySameVM().on_task_failure(
            _failure(reason="vm_crash", vm_alive=False)
        )
        assert action.kind == "resubmit"

    def test_aborts_at_attempt_budget(self):
        p = RetrySameVM(max_attempts=3)
        assert p.on_task_failure(_failure(attempt=2)).kind == "retry"
        assert p.on_task_failure(_failure(attempt=3)).kind == "abort"


class TestResubmitFresh:
    def test_always_resubmits(self):
        p = ResubmitFresh()
        assert p.on_task_failure(_failure()).kind == "resubmit"
        assert (
            p.on_task_failure(_failure(reason="vm_crash", vm_alive=False)).kind
            == "resubmit"
        )

    def test_zero_default_backoff(self):
        assert ResubmitFresh().on_task_failure(_failure()).delay == 0.0

    def test_aborts_at_budget(self):
        assert ResubmitFresh(max_attempts=2).on_task_failure(
            _failure(attempt=2)
        ).kind == "abort"


class TestReplanRemaining:
    def test_replans(self):
        action = ReplanRemaining().on_task_failure(_failure())
        assert action.kind == "replan"

    def test_queue_strategy(self):
        assert ReplanRemaining.queue_strategy == "replan"
        assert RetrySameVM.queue_strategy == "replacement"

    def test_provisioning_override(self):
        assert ReplanRemaining().provisioning is None
        assert (
            ReplanRemaining(provisioning="AllParExceed").provisioning
            == "AllParExceed"
        )


class TestRegistry:
    def test_names(self):
        # the market policies register lazily on first import, so the
        # registry holds the core three plus (at most) the bidding pair
        assert {"retry", "resubmit", "replan"} <= set(RECOVERY_POLICIES)
        assert set(RECOVERY_POLICIES) <= {
            "retry", "resubmit", "replan", "rebid", "fallback"
        }

    def test_resolver(self):
        assert isinstance(recovery_policy(None), RetrySameVM)
        assert isinstance(recovery_policy("REPLAN"), ReplanRemaining)
        custom = ResubmitFresh(max_attempts=2)
        assert recovery_policy(custom) is custom
        with pytest.raises(SchedulingError):
            recovery_policy("nope")
