"""Tests for the schedule executor: dynamic replay reproduces static
plans, and corrupted schedules are caught."""

import pytest

from repro.cloud.platform import CloudPlatform
from repro.cloud.vm import VM
from repro.core.allocation.heft import HeftScheduler
from repro.core.allocation.level import AllParScheduler
from repro.core.schedule import Schedule
from repro.errors import SimulationError
from repro.simulator.executor import ScheduleExecutor, simulate_schedule
from repro.simulator.trace import SimulationResult, TraceEvent
from tests.conftest import assert_schedule_invariants


@pytest.fixture(scope="module")
def platform():
    return CloudPlatform.ec2()


class TestReplayMatchesPlan:
    @pytest.mark.parametrize(
        "provisioning",
        ["OneVMperTask", "StartParNotExceed", "StartParExceed"],
    )
    def test_heft_schedules(self, diamond, platform, provisioning):
        sched = HeftScheduler(provisioning).schedule(diamond, platform)
        result = simulate_schedule(sched, check=True)
        assert result.makespan == pytest.approx(sched.makespan)
        assert_schedule_invariants(result, diamond)

    @pytest.mark.parametrize("exceed", [True, False])
    def test_allpar_schedules(self, fan7, platform, exceed):
        sched = AllParScheduler(exceed=exceed).schedule(fan7, platform)
        result = simulate_schedule(sched, check=True)
        assert result.makespan == pytest.approx(sched.makespan)
        assert_schedule_invariants(result, fan7)

    def test_chain_serializes(self, chain3, platform):
        sched = HeftScheduler("StartParExceed").schedule(chain3, platform)
        result = simulate_schedule(sched)
        assert result.task_start["Y"] >= result.task_finish["X"]
        assert result.task_start["Z"] >= result.task_finish["Y"]

    def test_transfer_delays_cross_vm_children(self, diamond, platform):
        sched = HeftScheduler("OneVMperTask").schedule(diamond, platform)
        result = simulate_schedule(sched)
        # B is on another VM than A and receives 0.5 GB over 1 Gb/s
        gap = result.task_start["B"] - result.task_finish["A"]
        assert gap == pytest.approx(0.5 * 8 / 1.0 + 0.1)

    def test_vm_windows_recorded(self, diamond, platform):
        sched = HeftScheduler("OneVMperTask").schedule(diamond, platform)
        result = simulate_schedule(sched)
        assert len(result.vm_windows) == 4
        for lo, hi in result.vm_windows.values():
            assert hi > lo >= 0.0

    def test_trace_event_stream_shape(self, chain3, platform):
        sched = HeftScheduler("StartParExceed").schedule(chain3, platform)
        result = simulate_schedule(sched)
        kinds = [e.kind for e in result.events]
        assert kinds.count("task_start") == 3
        assert kinds.count("task_end") == 3
        assert kinds.count("vm_start") == 1


class TestCorruptedSchedules:
    def test_check_against_flags_divergence(self, chain3, platform):
        sched = HeftScheduler("StartParExceed").schedule(chain3, platform)
        result = simulate_schedule(sched, check=False)
        # shift a recorded start: the check must fail
        result.task_start["Y"] += 100.0
        with pytest.raises(SimulationError, match="start"):
            result.check_against(sched)

    def test_missing_task_flagged(self, chain3, platform):
        sched = HeftScheduler("StartParExceed").schedule(chain3, platform)
        result = SimulationResult()
        with pytest.raises(SimulationError, match="never completed"):
            result.check_against(sched)

    def test_impossible_order_deadlock_detected(self, chain3, platform):
        """A per-VM order violating dependencies cannot complete."""
        vm = VM(id=0, itype=platform.itype("small"), region=platform.default_region)
        # place the chain backwards on one VM
        t = 0.0
        for tid in ("Z", "Y", "X"):
            dur = platform.runtime(chain3.task(tid), vm.itype)
            vm.place(tid, t, dur)
            t += dur
        bad = Schedule(workflow=chain3, platform=platform, vms=[vm])
        with pytest.raises(SimulationError, match="deadlock"):
            ScheduleExecutor(bad).run()


def test_second_finish_is_an_illegal_move(chain3, platform):
    """Every phase change goes through one checked move: finishing a
    task that already ended names the task and both phases."""
    sched = HeftScheduler("StartParExceed").schedule(chain3, platform)
    executor = ScheduleExecutor(sched)
    executor.run()
    attempt = executor._state["X"].attempt
    with pytest.raises(
        SimulationError, match="task 'X' cannot move from 'done' to 'done'"
    ):
        executor._finish("X", attempt)


class TestTraceRecord:
    def test_record_updates_maps(self):
        r = SimulationResult()
        r.record(TraceEvent(1.0, "task_start", "t", "vm0-s"))
        r.record(TraceEvent(2.0, "task_end", "t", "vm0-s"))
        assert r.task_start["t"] == 1.0
        assert r.task_finish["t"] == 2.0
        assert r.makespan == 2.0

    def test_empty_makespan(self):
        assert SimulationResult().makespan == 0.0
