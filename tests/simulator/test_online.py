"""Tests for the online (dynamic) scheduling mode."""

import pytest

from repro.cloud.platform import CloudPlatform
from repro.core.allocation.heft import HeftScheduler
from repro.errors import SchedulingError, SimulationError
from repro.simulator.online import OnlineCloudExecutor, run_online
from repro.simulator.perturb import lognormal_jitter
from repro.workloads.base import apply_model
from repro.workloads.pareto import ParetoModel
from repro.workflows.generators import cstem, mapreduce, montage, sequential
from tests.conftest import assert_schedule_invariants


@pytest.fixture(scope="module")
def platform():
    return CloudPlatform.ec2()


class TestBasics:
    def test_unsupported_policy(self, platform):
        with pytest.raises(SchedulingError):
            OnlineCloudExecutor(sequential(3), platform, policy="Magic")

    @pytest.mark.parametrize(
        "policy",
        [
            "OneVMperTask",
            "StartParNotExceed",
            "StartParExceed",
            "AllParNotExceed",
            "AllParExceed",
        ],
    )
    def test_all_policies_complete(self, platform, paper_workflow, policy):
        result = run_online(paper_workflow, platform, policy=policy)
        assert set(result.task_finish) == set(paper_workflow.task_ids)
        assert result.makespan == max(result.task_finish.values())
        assert result.rent_cost > 0 and result.idle_seconds >= 0
        assert_schedule_invariants(result, paper_workflow)

    def test_dependencies_respected(self, platform):
        wf = montage()
        result = run_online(wf, platform, policy="AllParExceed")
        for u, v, _ in wf.edges():
            assert result.task_start[v] >= result.task_finish[u] - 1e-6

    def test_vm_serialization(self, platform):
        wf = apply_model(montage(), ParetoModel(), seed=2)
        result = run_online(wf, platform, policy="StartParExceed")
        assert_schedule_invariants(result, wf)
        by_vm = {}
        for tid, vm in result.task_vm.items():
            by_vm.setdefault(vm, []).append(tid)
        for tasks in by_vm.values():
            spans = sorted(
                (result.task_start[t], result.task_finish[t]) for t in tasks
            )
            for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
                assert e1 <= s2 + 1e-6


class TestTaskRecord:
    def test_second_done_is_an_illegal_move(self, platform):
        """Every phase change goes through one checked move: finishing a
        task that already ended names the task and both phases."""
        executor = OnlineCloudExecutor(sequential(2), platform)
        executor.run()
        attempt = executor._state["step_000"].attempt
        with pytest.raises(
            SimulationError, match="task 'step_000' cannot move from 'done' to 'done'"
        ):
            executor._on_finish("step_000", attempt)


class TestPolicySemantics:
    def test_onevm_rents_per_task(self, platform):
        result = run_online(montage(), platform, policy="OneVMperTask")
        assert result.vm_count == 24

    def test_startpar_exceed_single_entry_one_vm(self, platform):
        """CSTEM online under StartParExceed also serializes onto the
        entry VM (the VM stays busy, hence alive)."""
        result = run_online(cstem(), platform, policy="StartParExceed")
        assert result.vm_count == 1

    def test_allpar_parallel_tasks_on_distinct_vms(self, platform):
        wf = mapreduce(mappers=5, reducers=2)
        result = run_online(wf, platform, policy="AllParExceed")
        for level in wf.levels():
            vms = [result.task_vm[t] for t in level]
            assert len(set(vms)) == len(vms)

    def test_dead_vms_not_reused(self, platform):
        """Any reused VM must be caught before its BTU horizon."""
        import math

        wf = apply_model(montage(), ParetoModel(), seed=3)
        result = run_online(wf, platform, policy="AllParExceed")
        by_vm = {}
        for tid, vm in result.task_vm.items():
            by_vm.setdefault(vm, []).append(tid)
        for tasks in by_vm.values():
            spans = sorted((result.task_start[t], result.task_finish[t]) for t in tasks)
            start0 = spans[0][0]
            for i in range(1, len(spans)):
                uptime = spans[i - 1][1] - start0
                horizon = start0 + math.ceil(uptime / 3600.0 - 1e-9) * 3600.0
                # the placement decision happened at ready time, which
                # precedes the (transfer-delayed) start by at most the
                # staging transfer; allow that slack
                assert spans[i][0] <= horizon + 60.0


class TestOnlineToSchedule:
    def test_round_trip_analytics(self, platform):
        from repro.core.explain import explain
        from repro.simulator.online import online_to_schedule

        wf = apply_model(montage(), ParetoModel(), seed=4)
        result = run_online(wf, platform, policy="StartParNotExceed")
        sched = online_to_schedule(result, wf, platform)
        assert sched.makespan == pytest.approx(result.makespan)
        assert sched.rent_cost == pytest.approx(result.rent_cost)
        assert sched.total_idle_seconds == pytest.approx(result.idle_seconds)
        # full Schedule analytics now apply
        exp = explain(sched)
        assert exp.total_cost == pytest.approx(result.rent_cost)

    def test_noisy_run_rejected(self, platform):
        from repro.errors import SimulationError
        from repro.simulator.online import online_to_schedule

        wf = apply_model(montage(), ParetoModel(), seed=4)
        result = run_online(
            wf, platform, policy="OneVMperTask",
            runtime_fn=lognormal_jitter(0.3, seed=1),
        )
        with pytest.raises(SimulationError, match="noisy"):
            online_to_schedule(result, wf, platform)


class TestColdStartOnline:
    def test_boot_delays_first_task(self):
        cold = CloudPlatform.ec2(boot_seconds=120.0, prebooted=False)
        result = run_online(sequential(3), cold, policy="StartParExceed")
        assert result.task_start["step_000"] == pytest.approx(120.0)
        # reused VM: later tasks don't reboot
        assert result.task_start["step_001"] == pytest.approx(
            result.task_finish["step_000"]
        )

    def test_every_rental_pays_boot(self):
        cold = CloudPlatform.ec2(boot_seconds=120.0, prebooted=False)
        warm = CloudPlatform.ec2()
        c = run_online(montage(), cold, policy="OneVMperTask")
        w = run_online(montage(), warm, policy="OneVMperTask")
        assert c.makespan > w.makespan
        assert c.vm_count == w.vm_count == 24

    def test_prebooted_ignores_boot(self):
        warm = CloudPlatform.ec2(boot_seconds=120.0, prebooted=True)
        result = run_online(sequential(2), warm, policy="OneVMperTask")
        assert result.task_start["step_000"] == 0.0


class TestStaticVsOnline:
    def test_onevm_matches_static_modulo_staging(self, platform):
        """OneVMperTask is placement-order independent: online equals the
        static plan up to the online mode's serialized input staging."""
        wf = apply_model(montage(), ParetoModel(), seed=5)
        static = HeftScheduler("OneVMperTask").schedule(wf, platform)
        online = run_online(wf, platform, policy="OneVMperTask")
        assert online.makespan >= static.makespan - 1e-6
        assert online.makespan <= static.makespan * 1.05
        assert online.rent_cost == pytest.approx(static.rent_cost, rel=0.05)

    def test_online_reacts_to_noise(self, platform):
        """Under runtime noise online placements may diverge run to run,
        but execution always completes feasibly."""
        wf = apply_model(montage(), ParetoModel(), seed=6)
        result = run_online(
            wf,
            platform,
            policy="StartParNotExceed",
            runtime_fn=lognormal_jitter(0.3, seed=0),
        )
        for u, v, _ in wf.edges():
            assert result.task_start[v] >= result.task_finish[u] - 1e-6

    def test_noise_free_cost_comparable_to_static(self, platform):
        wf = apply_model(mapreduce(), ParetoModel(), seed=7)
        static = HeftScheduler("StartParNotExceed").schedule(wf, platform)
        online = run_online(wf, platform, policy="StartParNotExceed")
        # same policy, same rules: costs in the same ballpark
        assert online.rent_cost <= static.total_cost * 1.5
