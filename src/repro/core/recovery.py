"""Recovery policies: what to do when a fault fires.

The fault processes of :mod:`repro.simulator.faults` decide *what
breaks*; a :class:`RecoveryPolicy` decides *how the run carries on*.
Policies are pure decision objects — the executors own the mechanics —
so one policy drives both the static-schedule replay
(:class:`~repro.simulator.executor.ScheduleExecutor`) and the online
scheduler (:class:`~repro.simulator.online.OnlineCloudExecutor`).

Three recoveries are provided:

* :class:`RetrySameVM` — re-run the failed attempt on the same VM after
  a capped exponential backoff (the data is already staged there); falls
  back to a fresh VM when the hosting VM is dead.
* :class:`ResubmitFresh` — rent a fresh VM of the same flavor and re-run
  the task there, re-staging its inputs.
* :class:`ReplanRemaining` — re-run the schedule's original provisioning
  policy on the unfinished sub-DAG against the surviving fleet state.
  In the online scheduler a failed task simply re-enters the ready queue
  and the online policy re-places it, which *is* the replan.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.errors import SchedulingError
from repro.obs.metrics import current as current_metrics
from repro.util.suggest import unknown_name_message


@dataclass(frozen=True)
class FailureEvent:
    """One fault firing, as presented to a recovery policy."""

    task_id: str
    vm_id: int
    attempt: int
    time: float
    #: ``"task"`` (transient task failure), ``"vm_crash"`` (random
    #: crash), or ``"spot_preempt"`` (price-correlated spot reclamation)
    reason: str
    #: whether the hosting VM survived the failure
    vm_alive: bool
    #: how the failed VM was bought (a
    #: :class:`~repro.market.spot.PurchaseOption`); ``None`` outside
    #: market runs — lets bidding-aware policies raise the bid
    purchase: Optional[object] = None


@dataclass(frozen=True)
class RecoveryAction:
    """A policy's verdict for one failure.

    ``kind`` is one of ``"retry"`` (same VM), ``"resubmit"`` (fresh VM),
    ``"replan"`` (re-run provisioning on the unfinished sub-DAG) or
    ``"abort"`` (give up; the executor raises
    :class:`~repro.errors.FaultError`).  ``delay`` is the recovery
    latency in seconds before the chosen action takes effect.

    ``purchase`` (a :class:`~repro.market.spot.PurchaseOption`), when
    set, overrides how the replacement VM is bought — the bidding axis:
    rebid higher, or fall back to on-demand.  ``tag`` sub-labels the
    decision for metrics/decision logs (``recovery.decision.<tag>``);
    empty outside market runs so existing logs are unchanged.
    """

    kind: str
    delay: float = 0.0
    purchase: Optional[object] = None
    tag: str = ""

    def __post_init__(self) -> None:
        if self.kind not in ("retry", "resubmit", "replan", "abort"):
            raise SchedulingError(f"unknown recovery action {self.kind!r}")
        if not 0.0 <= self.delay < math.inf:
            raise SchedulingError(
                f"recovery delay must be finite and >= 0, got {self.delay}"
            )


class RecoveryPolicy(abc.ABC):
    """Strategy deciding how a fault-injected run recovers."""

    #: registry key and report label
    name: str = "base"
    #: how a crashed VM's *queued* (not yet started) tasks are handled:
    #: ``"replacement"`` moves them, in order, to one fresh VM;
    #: ``"replan"`` re-runs the provisioning policy on everything pending
    queue_strategy: str = "replacement"
    #: whether an online retry should stick to the VM of the failed
    #: attempt (inputs are already staged there) when it is still alive
    prefer_same_vm: bool = False
    #: market hooks (see :mod:`repro.market.recovery`): checkpoint the
    #: running task when a spot reclamation warning fires, and the extra
    #: seconds a checkpointed restart costs
    checkpoint_on_warning: bool = False
    restart_cost_seconds: float = 0.0

    def __init__(
        self,
        max_attempts: int = 8,
        backoff_base: float = 30.0,
        backoff_factor: float = 2.0,
        backoff_cap: float = 600.0,
    ) -> None:
        if max_attempts < 1:
            raise SchedulingError(f"max_attempts must be >= 1, got {max_attempts}")
        # negated comparisons: NaN fails every one of them
        if not (
            0.0 <= backoff_base < math.inf
            and backoff_cap >= 0.0
            and backoff_factor >= 1.0
        ):
            raise SchedulingError(
                "invalid backoff parameters: base="
                f"{backoff_base}, factor={backoff_factor}, cap={backoff_cap}"
            )
        self.max_attempts = max_attempts
        self.backoff_base = backoff_base
        self.backoff_factor = backoff_factor
        self.backoff_cap = backoff_cap

    # ------------------------------------------------------------------
    def backoff(self, attempt: int) -> float:
        """Capped exponential backoff before re-attempt *attempt + 1*."""
        return min(
            self.backoff_base * self.backoff_factor ** max(attempt - 1, 0),
            self.backoff_cap,
        )

    @abc.abstractmethod
    def on_task_failure(self, failure: FailureEvent) -> RecoveryAction:
        """Decide the recovery for one failed execution attempt."""

    def decide(self, failure: FailureEvent) -> RecoveryAction:
        """Instrumented entry point the executors call: delegates to
        :meth:`on_task_failure` and, when a metrics registry is active,
        counts the decision by kind (``recovery.decision.<kind>``)."""
        action = self.on_task_failure(failure)
        metrics = current_metrics()
        if metrics is not None:
            metrics.inc(f"recovery.decision.{action.kind}")
            if action.tag:
                metrics.inc(f"recovery.decision.{action.tag}")
        return action

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}(max_attempts={self.max_attempts})"


class RetrySameVM(RecoveryPolicy):
    """Retry on the same VM with capped exponential backoff."""

    name = "retry"
    queue_strategy = "replacement"
    prefer_same_vm = True

    def on_task_failure(self, failure: FailureEvent) -> RecoveryAction:
        if failure.attempt >= self.max_attempts:
            return RecoveryAction("abort")
        delay = self.backoff(failure.attempt)
        if failure.vm_alive and failure.reason == "task":
            return RecoveryAction("retry", delay)
        # the hosting VM is gone — a same-VM retry is impossible
        return RecoveryAction("resubmit", delay)


class ResubmitFresh(RecoveryPolicy):
    """Always move a failed task to a freshly rented VM.

    The default backoff is zero: renting the replacement *is* the
    recovery latency in this model.
    """

    name = "resubmit"
    queue_strategy = "replacement"

    def __init__(
        self,
        max_attempts: int = 8,
        backoff_base: float = 0.0,
        backoff_factor: float = 2.0,
        backoff_cap: float = 600.0,
    ) -> None:
        super().__init__(max_attempts, backoff_base, backoff_factor, backoff_cap)

    def on_task_failure(self, failure: FailureEvent) -> RecoveryAction:
        if failure.attempt >= self.max_attempts:
            return RecoveryAction("abort")
        return RecoveryAction("resubmit", self.backoff(failure.attempt))


class ReplanRemaining(RecoveryPolicy):
    """Re-run the original provisioning policy on the unfinished sub-DAG.

    On any failure the whole set of pending (unstarted) tasks is handed
    back to the schedule's provisioning policy, which re-decides their
    placement against the surviving fleet state.  ``provisioning``
    overrides the policy name when the schedule's own is not in the
    registry (e.g. schedules built by dynamic upgraders).
    """

    name = "replan"
    queue_strategy = "replan"

    def __init__(
        self,
        max_attempts: int = 8,
        backoff_base: float = 0.0,
        backoff_factor: float = 2.0,
        backoff_cap: float = 600.0,
        provisioning: Optional[str] = None,
    ) -> None:
        super().__init__(max_attempts, backoff_base, backoff_factor, backoff_cap)
        self.provisioning = provisioning

    def on_task_failure(self, failure: FailureEvent) -> RecoveryAction:
        if failure.attempt >= self.max_attempts:
            return RecoveryAction("abort")
        return RecoveryAction("replan", self.backoff(failure.attempt))


#: registry: name -> zero-argument factory
RECOVERY_POLICIES: Dict[str, Callable[[], RecoveryPolicy]] = {
    RetrySameVM.name: RetrySameVM,
    ResubmitFresh.name: ResubmitFresh,
    ReplanRemaining.name: ReplanRemaining,
}


def recovery_policy(policy: "str | RecoveryPolicy | None") -> RecoveryPolicy:
    """Resolve a policy instance, registry name, or ``None`` (retry)."""
    if policy is None:
        return RetrySameVM()
    if isinstance(policy, RecoveryPolicy):
        return policy
    key = str(policy).lower()
    if key not in RECOVERY_POLICIES:
        # the bidding-aware policies register themselves on import
        import repro.market.recovery  # noqa: F401
    try:
        return RECOVERY_POLICIES[key]()
    except KeyError:
        raise SchedulingError(
            unknown_name_message("recovery policy", str(policy), RECOVERY_POLICIES)
        ) from None
