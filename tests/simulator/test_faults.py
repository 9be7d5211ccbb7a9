"""Fault-injection tests: the zero-fault identity contract, seed
determinism (including across execution backends), recovery mechanics,
and robustness accounting."""

import dataclasses
import math

import pytest

from repro.cloud.platform import CloudPlatform
from repro.core.allocation.heft import HeftScheduler
from repro.core.allocation.level import AllParScheduler
from repro.core.recovery import RetrySameVM
from repro.errors import FaultError, SimulationError
from repro.simulator.executor import ScheduleExecutor, run_with_faults
from repro.simulator.faults import FaultPlan, FaultStats
from repro.simulator.online import OnlineCloudExecutor, run_online
from repro.workflows.generators import mapreduce, montage, sequential

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

    @pytest.mark.parametrize("seed", range(3))
    def test_no_vm_crashes_past_its_paid_horizon(self, platform, seed):
        """An idle VM is deprovisioned at its BTU horizon, so a crash
        drawn later neither hits it nor bills it up to the crash, on a
        private fleet and on a shared one alike."""
        from repro.service.arrivals import poisson_arrivals
        from repro.service.loop import WorkflowService
        from repro.simulator.online import OnlineCloudExecutor

        plan = FaultPlan(seed=seed, vm_crash_rate=1 / 20000)
        solo = OnlineCloudExecutor(
            montage(), platform, fault_plan=plan, recovery="resubmit"
        )
        solo.run()
        service = WorkflowService(platform, fault_plan=plan, recovery="resubmit")
        service.run(
            poisson_arrivals(
                [montage(), mapreduce()],
                count=20,
                tenants=3,
                mean_interarrival=600.0,
                seed=seed,
            )
        )
        btu = platform.btu_seconds
        for fleet in (solo.fleet, service.fleet.vms):
            crashed = [vm for vm in fleet if vm.crashed]
            assert crashed
            for vm in crashed:
                assert vm.crashed_at <= vm.horizon(btu) + 1e-9, vm.id

    @pytest.mark.parametrize(
        "wf,cls,seed",
        [(montage, "ResubmitFresh", 0), (mapreduce, "ReplanRemaining", 3)],
    )
    def test_crash_during_a_backoff_recovers_once(self, platform, wf, cls, seed):
        """Regression: a task that failed on a live VM kept its roster
        entry while its re-placement waited out a backoff, so a crash of
        that VM recovered it again and it ran twice (or the second
        placement raised KeyError)."""
        from collections import Counter

        from repro.core import recovery

        result = run_online(
            wf(),
            platform,
            policy="StartParNotExceed",
            fault_plan=FaultPlan(seed=seed, task_fail_prob=0.3, vm_crash_rate=1 / 4000),
            recovery=getattr(recovery, cls)(backoff_base=300.0),
        )
        assert result.faults.vm_crashes > 0
        ends = Counter(e.task_id for e in result.events if e.kind == "task_end")
        assert set(ends) == set(wf().task_ids)
        assert set(ends.values()) == {1}

    def test_retry_on_a_reaped_vm_moves_to_a_fresh_one(self, platform):
        """Regression: a retry whose VM was reaped idle during the backoff
        (no crash to re-dispatch it) was dropped and the service wedged."""
        from repro.service.arrivals import poisson_arrivals
        from repro.service.loop import WorkflowService

        service = WorkflowService(
            platform,
            policy="AllParNotExceed",
            max_concurrent=4,
            fault_plan=FaultPlan(
                seed=4, task_fail_prob=0.2, vm_crash_rate=1 / 5000, boot_fail_prob=0.1
            ),
            recovery="retry",
        )
        result = service.run(
            poisson_arrivals(
                [montage(25), mapreduce(20)],
                count=12,
                tenants=3,
                mean_interarrival=400.0,
                seed=4,
            )
        )
        assert result.completed == 12

    def test_retry_outlasting_its_vm_moves_to_a_fresh_one(self, platform):
        """The same on a private fleet with no crashes at all: backoffs
        longer than a BTU outlast the failed attempt's idle VM, and with
        no crash every move to another VM is such a retry."""
        result = run_online(
            montage(25),
            platform,
            policy="AllParNotExceed",
            fault_plan=FaultPlan(seed=0, task_fail_prob=0.3),
            recovery=RetrySameVM(backoff_base=2000.0, backoff_cap=4000.0),
        )
        assert set(result.task_finish) == set(montage(25).task_ids)
        assert any(
            e.vm != f"vm{result.task_vm[e.task_id]}"
            for e in result.events
            if e.kind == "task_fail"
        )


def _fails_once(wf, task_id):
    """A plan whose only failing attempt, on *wf*, is *task_id*'s first."""
    for seed in range(1000):
        plan = FaultPlan(seed=seed, task_fail_prob=0.2)
        draws = {(t, 1): plan.task_attempt(t, 1) for t in wf.task_ids}
        draws[task_id, 2] = plan.task_attempt(task_id, 2)
        if [k for k, frac in draws.items() if frac is not None] == [(task_id, 1)]:
            return plan
    raise AssertionError("no seed fails only the first attempt")  # pragma: no cover


class TestCrashChargesOnlyTheRunningAttempt:
    """A crash fails only the attempt running on the VM.  A reservation
    that starts after the crash, or a retry waiting out its backoff on
    the VM, never ran: it is re-placed with no ``task_fail`` event, no
    attempt bump and no task failure counted, on both executors."""

    @staticmethod
    def _task_fails(result):
        return [e for e in result.events if e.kind == "task_fail"]

    def test_online_crash_before_a_reservation_starts(self, platform):
        ex = OnlineCloudExecutor(
            mapreduce(), platform, policy="StartParExceed",
            fault_plan=FaultPlan(), recovery="resubmit",
        )
        roster = {}

        def crash():
            vm = ex._fleet_mgr.live_vm(0)
            roster.update((tid, ex.task_start[tid]) for _, tid in vm.tasks)
            ex._on_vm_crash(0)

        ex.sim.at(800.0, crash, "crash:vm0")
        result = ex.run()
        running = [t for t, start in roster.items() if start <= 800.0]
        later = [t for t, start in roster.items() if start > 800.0]
        assert len(running) == 1 and later
        assert [e.task_id for e in self._task_fails(result)] == running
        assert result.faults.task_failures == 1
        assert {ex._state[t].attempt for t in later} == {1}
        assert set(result.task_finish) == set(mapreduce().task_ids)

    def test_online_crash_during_a_retry_backoff(self, platform):
        wf = sequential(3)
        plan = _fails_once(wf, "step_001")

        def run(crash_at=None, vm_id=None):
            ex = OnlineCloudExecutor(
                wf, platform, policy="OneVMperTask", fault_plan=plan,
                recovery=RetrySameVM(backoff_base=300.0),
            )
            if crash_at is not None:
                ex.sim.at(crash_at, lambda: ex._on_vm_crash(vm_id), "crash")
            return ex, ex.run()

        _, dry = run()
        (fail,) = self._task_fails(dry)
        ex, result = run(fail.time + 100.0, int(fail.vm[2:]))
        assert result.faults.vm_crashes == 1
        assert self._task_fails(result) == [fail]
        assert result.faults.task_failures == 1
        assert ex._state["step_001"].attempt == 2

    def test_replay_crash_before_a_queued_task_starts(self, platform):
        sched = HeftScheduler("StartParExceed").schedule(mapreduce(), platform)
        host = next(vm for vm in sched.vms if len(vm.task_ids) > 1)
        first, later = host.task_ids[0], host.task_ids[1:]
        dry = ScheduleExecutor(sched, fault_plan=FaultPlan()).run()
        crash_at = (dry.task_start[first] + dry.task_finish[first]) / 2
        ex = ScheduleExecutor(sched, fault_plan=FaultPlan(), recovery="resubmit")
        evm = ex._vms[sched.vms.index(host)]
        ex.sim.at(crash_at, lambda: ex._vm_crash(evm), "crash")
        result = ex.run()
        assert [e.task_id for e in self._task_fails(result)] == [first]
        assert result.faults.task_failures == 1
        assert {ex._state[t].attempt for t in later} == {1}

    @pytest.mark.parametrize("recovery", ["resubmit", "replan"])
    def test_replay_crash_between_queued_tasks(self, platform, recovery):
        """A crash after the VM's running task finished and before its
        next queued task starts fails nothing, so no recovery is counted:
        the queue is re-placed uncharged, as the online executor does."""
        sched = HeftScheduler("StartParExceed").schedule(montage(4), platform)
        dry = ScheduleExecutor(sched, fault_plan=FaultPlan()).run()
        host = sched.vms[0]
        first, after = host.task_ids[:2]
        gap = (dry.task_finish[first], dry.task_start[after])
        assert gap[0] < gap[1]
        ex = ScheduleExecutor(sched, fault_plan=FaultPlan(), recovery=recovery)
        evm = ex._vms[0]
        ex.sim.at(sum(gap) / 2, lambda: ex._vm_crash(evm), "crash")
        result = ex.run()
        assert result.faults.vm_crashes == 1
        assert self._task_fails(result) == []
        assert result.faults.task_failures == 0
        assert result.faults.recoveries == 0
        assert result.task_start[after] > gap[1]  # it did move
        assert set(result.task_finish) == set(sched.workflow.task_ids)

    def test_replay_crash_during_a_retry_backoff(self, platform):
        wf = sequential(3)
        plan = _fails_once(wf, "step_001")
        sched = HeftScheduler("OneVMperTask").schedule(wf, platform)

        def run(crash_at=None):
            ex = ScheduleExecutor(
                sched, fault_plan=plan, recovery=RetrySameVM(backoff_base=300.0)
            )
            if crash_at is not None:
                evm = ex._state["step_001"].vm
                ex.sim.at(crash_at, lambda: ex._vm_crash(evm), "crash")
            return ex, ex.run()

        _, dry = run()
        (fail,) = self._task_fails(dry)
        ex, result = run(fail.time + 100.0)
        assert result.faults.vm_crashes == 1
        assert self._task_fails(result) == [fail]
        assert result.faults.task_failures == 1
        assert ex._state["step_001"].attempt == 2


class TestFaultStats:
    def test_as_dict_roundtrip(self):
        stats = FaultStats(task_failures=2, retries=1, wasted_task_seconds=3.5)
        d = stats.as_dict()
        assert d["task_failures"] == 2
        assert d["retries"] == 1
        assert stats.failures == 2
        assert stats.recoveries == 1
