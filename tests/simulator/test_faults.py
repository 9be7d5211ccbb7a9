"""Fault-injection tests: the zero-fault identity contract, seed
determinism (including across execution backends), recovery mechanics,
and robustness accounting."""

import dataclasses
import math

import pytest

from repro.cloud.platform import CloudPlatform
from repro.core.allocation.heft import HeftScheduler
from repro.core.allocation.level import AllParScheduler
from repro.errors import FaultError, SimulationError
from repro.simulator.executor import ScheduleExecutor, run_with_faults
from repro.simulator.faults import FaultPlan, FaultStats
from repro.simulator.online import run_online
from repro.workflows.generators import mapreduce, montage

#: a plan aggressive enough to fire every process on the test workflows
AGGRESSIVE = FaultPlan(
    seed=7, task_fail_prob=0.15, vm_crash_rate=1 / 20000, boot_fail_prob=0.1
)


@pytest.fixture(scope="module")
def platform():
    return CloudPlatform.ec2()


@pytest.fixture(scope="module")
def schedule(platform):
    return HeftScheduler("StartParNotExceed").schedule(montage(), platform)


# ----------------------------------------------------------------------
# plan construction and sampling
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_default_injects_nothing(self):
        assert not FaultPlan.none().enabled

    def test_validation(self):
        with pytest.raises(SimulationError):
            FaultPlan(task_fail_prob=1.0)
        with pytest.raises(SimulationError):
            FaultPlan(boot_fail_prob=-0.1)
        with pytest.raises(SimulationError):
            FaultPlan(vm_crash_rate=-1.0)
        with pytest.raises(SimulationError):
            FaultPlan(boot_delay_rel_std=-0.5)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize(
        "field",
        [
            "vm_crash_rate",
            "boot_delay_rel_std",
            "boot_cold_seconds",
            "boot_warm_seconds",
        ],
    )
    def test_rejects_non_finite(self, field, value):
        """Caught at construction, not as an unschedulable event time
        deep inside the executor's event loop."""
        with pytest.raises(SimulationError, match=field):
            FaultPlan(**{field: value})

    def test_zero_prob_never_draws(self):
        plan = FaultPlan.none()
        assert plan.task_attempt("t", 1) is None
        assert plan.vm_crash_uptime("vm0") == math.inf
        assert plan.boot_outcome("vm0", 1) == (False, 1.0)

    def test_sampling_is_keyed_not_ordered(self):
        """The same (entity, attempt) draw is identical whenever asked."""
        plan = AGGRESSIVE
        forward = [plan.task_attempt(f"t{i}", 1) for i in range(50)]
        backward = [plan.task_attempt(f"t{i}", 1) for i in reversed(range(50))]
        assert forward == list(reversed(backward))
        assert plan.vm_crash_uptime("vm3") == plan.vm_crash_uptime("vm3")

    def test_attempts_sample_independently(self):
        plan = FaultPlan(seed=1, task_fail_prob=0.5)
        outcomes = {plan.task_attempt("t", a) is None for a in range(1, 20)}
        assert outcomes == {True, False}

    def test_scaled(self):
        plan = AGGRESSIVE.scaled(0.0)
        assert not plan.enabled
        doubled = AGGRESSIVE.scaled(2.0)
        assert doubled.task_fail_prob == pytest.approx(0.3)
        assert doubled.vm_crash_rate == pytest.approx(2 * AGGRESSIVE.vm_crash_rate)
        capped = FaultPlan(task_fail_prob=0.6).scaled(10)
        assert capped.task_fail_prob == pytest.approx(0.99)
        with pytest.raises(SimulationError):
            AGGRESSIVE.scaled(-1)

    def test_with_seed_changes_sample_not_intensity(self):
        other = AGGRESSIVE.with_seed(99)
        assert other.task_fail_prob == AGGRESSIVE.task_fail_prob
        assert other.vm_crash_uptime("vm0") != AGGRESSIVE.vm_crash_uptime("vm0")

    def test_failure_fraction_is_partial(self):
        plan = FaultPlan(seed=3, task_fail_prob=0.99)
        fracs = [plan.task_attempt(f"t{i}", 1) for i in range(50)]
        fired = [f for f in fracs if f is not None]
        assert fired and all(0 < f < 1 for f in fired)


# ----------------------------------------------------------------------
# the zero-fault identity contract
# ----------------------------------------------------------------------
class TestZeroFaultIdentity:
    def test_executor_byte_identical(self, schedule):
        plain = ScheduleExecutor(schedule).run()
        zero = ScheduleExecutor(
            schedule, fault_plan=FaultPlan.none(), recovery="retry"
        ).run()
        assert plain.events == zero.events
        assert plain.task_start == zero.task_start
        assert plain.task_finish == zero.task_finish
        assert plain.vm_windows == zero.vm_windows
        assert zero.faults is not None and zero.faults.failures == 0

    def test_executor_byte_identical_with_boot(self, platform):
        cold = dataclasses.replace(platform, prebooted=False, boot_seconds=97.0)
        sched = AllParScheduler(exceed=True).schedule(mapreduce(), cold)
        plain = ScheduleExecutor(sched).run()
        zero = ScheduleExecutor(sched, fault_plan=FaultPlan.none()).run()
        assert plain.events == zero.events

    def test_online_byte_identical(self, platform):
        plain = run_online(montage(), platform, policy="AllParExceed")
        zero = run_online(
            montage(),
            platform,
            policy="AllParExceed",
            fault_plan=FaultPlan.none(),
            recovery="retry",
        )
        a, b = dataclasses.asdict(plain), dataclasses.asdict(zero)
        a.pop("faults"), b.pop("faults")
        assert a == b

    def test_zero_fault_costs_match_schedule(self, schedule):
        zero = ScheduleExecutor(schedule, fault_plan=FaultPlan.none()).run()
        assert zero.realized_cost == pytest.approx(schedule.total_cost)


# ----------------------------------------------------------------------
# determinism of fault-injected runs
# ----------------------------------------------------------------------
class TestFaultDeterminism:
    @pytest.mark.parametrize("recovery", ["retry", "resubmit", "replan"])
    def test_executor_reproducible(self, schedule, recovery):
        a = run_with_faults(schedule, AGGRESSIVE, recovery=recovery)
        b = run_with_faults(schedule, AGGRESSIVE, recovery=recovery)
        assert a.events == b.events
        assert a.vm_costs == b.vm_costs
        assert a.faults.decisions == b.faults.decisions
        assert a.faults.as_dict() == b.faults.as_dict()

    def test_seeds_differ(self, schedule):
        a = run_with_faults(schedule, AGGRESSIVE)
        b = run_with_faults(schedule, AGGRESSIVE.with_seed(1234))
        assert a.events != b.events

    @pytest.mark.parametrize("recovery", ["retry", "resubmit", "replan"])
    def test_online_reproducible(self, platform, recovery):
        runs = [
            run_online(
                montage(),
                platform,
                policy="StartParNotExceed",
                fault_plan=AGGRESSIVE,
                recovery=recovery,
            )
            for _ in range(2)
        ]
        assert runs[0].events == runs[1].events
        assert runs[0].faults.decisions == runs[1].faults.decisions

    def test_identical_across_backends(self, schedule):
        """Serial / thread / process workers replay identical traces."""
        from functools import partial

        from repro.experiments.faults import (
            FaultCellResult,
            ReplayCell,
            run_replay_cell,
        )
        from repro.experiments.parallel import make_backend

        cells = [
            ReplayCell(
                label=f"x{x}#s{s}",
                spec=_spec(),
                workflow=montage(),
                platform=schedule.platform,
                plan=AGGRESSIVE.scaled(x).with_seed(s),
                recovery="retry",
                outcome=partial(
                    FaultCellResult,
                    strategy="StartParNotExceed-s",
                    workflow="montage",
                    intensity=x,
                    fault_seed=s,
                    recovery="retry",
                ),
            )
            for x in (0.5, 1.0)
            for s in (0, 1)
        ]
        per_backend = []
        for name in ("serial", "thread", "process"):
            results = make_backend(name, 2).map(run_replay_cell, cells)
            per_backend.append(
                [(r.makespan, r.cost, r.stats.decisions) for r in results]
            )
        assert per_backend[0] == per_backend[1] == per_backend[2]


def _spec():
    from repro.experiments.config import strategy

    return strategy("StartParNotExceed-s")


# ----------------------------------------------------------------------
# recovery mechanics and accounting
# ----------------------------------------------------------------------
class TestRecoveryMechanics:
    def test_all_tasks_complete_under_faults(self, schedule):
        from tests.conftest import assert_schedule_invariants

        for recovery in ("retry", "resubmit", "replan"):
            result = run_with_faults(schedule, AGGRESSIVE, recovery=recovery)
            assert set(result.task_finish) == set(schedule.workflow.task_ids)
            assert_schedule_invariants(result, schedule.workflow)

    def test_faults_fire_and_are_recovered(self, schedule):
        result = run_with_faults(schedule, AGGRESSIVE)
        stats = result.faults
        assert stats.failures > 0
        assert stats.recoveries > 0
        assert len(stats.decisions) >= stats.recoveries
        assert stats.wasted_task_seconds > 0

    def test_realized_at_least_planned_makespan(self, schedule):
        result = run_with_faults(schedule, AGGRESSIVE)
        assert result.makespan > schedule.makespan - 1e-6

    def test_crash_billed_to_btu_boundary(self, platform):
        """A crashed VM pays ceil(uptime / BTU) like a revoked instance."""
        sched = HeftScheduler("OneVMperTask").schedule(montage(), platform)
        plan = FaultPlan(seed=5, vm_crash_rate=1 / 15000)
        result = run_with_faults(sched, plan, recovery="resubmit")
        assert result.faults.vm_crashes > 0
        btu = platform.btu_seconds
        for name, (start, end) in result.vm_windows.items():
            cost = result.vm_costs[name]
            assert cost >= 0
            # cost is a whole number of BTUs at the small-instance price
            paid = platform.billing.paid_seconds(end - start)
            assert paid % btu == pytest.approx(0.0, abs=1e-6)

    def test_wasted_btu_accounting(self, schedule):
        result = run_with_faults(schedule, AGGRESSIVE)
        stats = result.faults
        assert stats.paid_seconds > 0
        assert 0 < stats.wasted_btu_seconds <= stats.paid_seconds

    def test_abort_raises_fault_error(self, schedule):
        from repro.core.recovery import RetrySameVM

        hopeless = FaultPlan(seed=0, task_fail_prob=0.97)
        with pytest.raises(FaultError):
            run_with_faults(
                schedule, hopeless, recovery=RetrySameVM(max_attempts=1)
            )

    def test_replan_rents_or_reuses_and_completes(self, platform):
        sched = AllParScheduler(exceed=False).schedule(mapreduce(), platform)
        plan = FaultPlan(seed=2, task_fail_prob=0.2, vm_crash_rate=1 / 10000)
        result = run_with_faults(sched, plan, recovery="replan")
        assert result.faults.replans > 0
        assert set(result.task_finish) == set(sched.workflow.task_ids)

    @pytest.mark.parametrize("exceed", [True, False])
    def test_allpar_replan_never_places_on_a_ghost(self, platform, exceed):
        """Regression: a sequential task whose largest predecessor ran on
        a crashed VM was placed on that VM's ghost and the replan raised
        "vm-7 does not belong to this builder"; it now rents instead."""
        from tests.conftest import assert_schedule_invariants

        wf = montage(25)
        sched = AllParScheduler(exceed=exceed).schedule(wf, platform)
        plan = FaultPlan(
            seed=1, task_fail_prob=0.2, vm_crash_rate=1 / 7200, boot_fail_prob=0.1
        )
        result = run_with_faults(sched, plan, recovery="replan")
        assert result.faults.vm_crashes > 0
        assert result.faults.replans > 0
        assert_schedule_invariants(result, wf)

    def test_boot_faults_delay_cold_starts(self, platform):
        cold = dataclasses.replace(platform, prebooted=False, boot_seconds=97.0)
        sched = HeftScheduler("StartParNotExceed").schedule(montage(), cold)
        plan = FaultPlan(seed=4, boot_fail_prob=0.4, boot_delay_rel_std=0.3)
        result = run_with_faults(sched, plan)
        base = ScheduleExecutor(sched).run()
        assert result.faults.boot_failures > 0
        assert result.makespan > base.makespan

    def test_dependencies_hold_under_faults(self, schedule):
        """Final attempts still respect the DAG and per-VM serialization."""
        result = run_with_faults(schedule, AGGRESSIVE, recovery="resubmit")
        wf = schedule.workflow
        for u, v, _ in wf.edges():
            assert result.task_finish[v] >= result.task_finish[u] - 1e-6

    def test_online_crash_recovery_completes(self, platform):
        from tests.conftest import assert_schedule_invariants

        result = run_online(
            montage(),
            platform,
            policy="OneVMperTask",
            fault_plan=FaultPlan(seed=9, vm_crash_rate=1 / 8000),
            recovery="replan",
        )
        assert result.faults.vm_crashes > 0
        assert set(result.task_finish) == set(montage().task_ids)
        assert_schedule_invariants(result, montage())


class TestFaultStats:
    def test_as_dict_roundtrip(self):
        stats = FaultStats(task_failures=2, retries=1, wasted_task_seconds=3.5)
        d = stats.as_dict()
        assert d["task_failures"] == 2
        assert d["retries"] == 1
        assert stats.failures == 2
        assert stats.recoveries == 1
