"""Tests for the runtime-jitter robustness machinery."""

import numpy as np
import pytest

from repro.cloud.platform import CloudPlatform
from repro.core.allocation.heft import HeftScheduler
from repro.errors import SimulationError
from repro.simulator.executor import ScheduleExecutor
from repro.simulator.perturb import (
    lognormal_jitter,
    robustness_study,
)
from repro.workloads.base import apply_model
from repro.workloads.pareto import ParetoModel
from repro.workflows.generators import montage


@pytest.fixture(scope="module")
def platform():
    return CloudPlatform.ec2()


@pytest.fixture(scope="module")
def workflow():
    return apply_model(montage(), ParetoModel(), seed=5)


class TestLognormalJitter:
    def test_mean_is_one(self):
        fn = lognormal_jitter(0.3, seed=0)
        draws = np.array([fn("t", 1.0) for _ in range(20_000)])
        assert draws.mean() == pytest.approx(1.0, abs=0.02)
        assert draws.std() == pytest.approx(0.3, abs=0.02)

    def test_positive(self):
        fn = lognormal_jitter(1.0, seed=1)
        assert all(fn("t", 5.0) > 0 for _ in range(1000))

    def test_zero_noise_is_identity(self):
        fn = lognormal_jitter(0.0, seed=2)
        assert fn("t", 123.0) == pytest.approx(123.0)

    def test_negative_std_rejected(self):
        with pytest.raises(SimulationError):
            lognormal_jitter(-0.1)

    @pytest.mark.parametrize("rel_std", [float("nan"), float("inf")])
    def test_non_finite_std_rejected(self, rel_std):
        with pytest.raises(SimulationError, match="finite"):
            lognormal_jitter(rel_std)


class TestPerturbedExecution:
    def test_execution_stays_feasible(self, workflow, platform):
        """Dependencies and per-VM serialization hold under any noise."""
        sched = HeftScheduler("StartParNotExceed").schedule(workflow, platform)
        result = ScheduleExecutor(
            sched, runtime_fn=lognormal_jitter(0.5, seed=3)
        ).run()
        wf = sched.workflow
        for u, v, _ in wf.edges():
            assert result.task_start[v] >= result.task_finish[u] - 1e-6
        for vm in sched.vms:
            spans = sorted(
                (result.task_start[t], result.task_finish[t]) for t in vm.task_ids
            )
            for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
                assert e1 <= s2 + 1e-6

    def test_negative_runtime_rejected(self, workflow, platform):
        sched = HeftScheduler("OneVMperTask").schedule(workflow, platform)
        with pytest.raises(SimulationError, match="negative"):
            ScheduleExecutor(sched, runtime_fn=lambda t, d: -1.0).run()

    def test_zero_noise_matches_plan(self, workflow, platform):
        sched = HeftScheduler("StartParExceed").schedule(workflow, platform)
        result = ScheduleExecutor(
            sched, runtime_fn=lognormal_jitter(0.0)
        ).run()
        result.check_against(sched)


class TestRobustnessStudy:
    def test_report_shape(self, workflow, platform):
        sched = HeftScheduler("OneVMperTask").schedule(workflow, platform)
        report = robustness_study(sched, rel_std=0.2, trials=10, seed=0)
        assert len(report.realized_makespans) == 10
        assert report.planned_makespan == pytest.approx(sched.makespan)
        assert report.worst_stretch >= report.p95_stretch >= 0
        assert report.mean_stretch > 0

    def test_reproducible(self, workflow, platform):
        sched = HeftScheduler("OneVMperTask").schedule(workflow, platform)
        a = robustness_study(sched, trials=5, seed=7)
        b = robustness_study(sched, trials=5, seed=7)
        assert a.realized_makespans == b.realized_makespans

    def test_noise_stretches_makespan_on_average(self, workflow, platform):
        """max() over noisy parallel branches exceeds max() over means."""
        sched = HeftScheduler("OneVMperTask").schedule(workflow, platform)
        report = robustness_study(sched, rel_std=0.4, trials=20, seed=1)
        assert report.mean_stretch > 1.0

    def test_trials_validated(self, workflow, platform):
        sched = HeftScheduler("OneVMperTask").schedule(workflow, platform)
        with pytest.raises(SimulationError):
            robustness_study(sched, trials=0)


class TestPerturbEdgeCases:
    def test_zero_rel_std_is_exact_identity_replay(self, workflow, platform):
        """rel_std=0 must replay the schedule *exactly*: the jitter factor
        is exp(0) = 1.0 precisely, not merely approximately."""
        fn = lognormal_jitter(0.0, seed=11)
        assert all(fn("t", d) == d for d in (1.0, 3600.0, 0.125))
        sched = HeftScheduler("StartParNotExceed").schedule(workflow, platform)
        noisy = ScheduleExecutor(sched, runtime_fn=lognormal_jitter(0.0)).run()
        exact = ScheduleExecutor(sched).run()
        assert noisy.events == exact.events
        assert noisy.task_finish == exact.task_finish
        report = robustness_study(sched, rel_std=0.0, trials=3, seed=0)
        assert report.realized_makespans == [sched.makespan] * 3

    def test_perturbed_makespan_deterministic_per_seed(self, workflow, platform):
        """One (schedule, rel_std, seed) triple has exactly one outcome."""
        sched = HeftScheduler("StartParExceed").schedule(workflow, platform)
        a = robustness_study(sched, rel_std=0.3, trials=4, seed=42)
        b = robustness_study(sched, rel_std=0.3, trials=4, seed=42)
        assert a.realized_makespans == b.realized_makespans
        c = robustness_study(sched, rel_std=0.3, trials=4, seed=43)
        assert a.realized_makespans != c.realized_makespans

    def test_spawned_replicates_are_independent(self):
        """spawn_rngs children draw distinct streams: no replicate reuses
        another's noise, and child identity depends only on its index."""
        from repro.util.rng import spawn_rngs

        draws = [rng.random(8).tolist() for rng in spawn_rngs(123, 5)]
        for i in range(5):
            for j in range(i + 1, 5):
                assert draws[i] != draws[j]
        again = [rng.random(8).tolist() for rng in spawn_rngs(123, 5)]
        assert draws == again
        # a longer spawn keeps earlier children unchanged (index-keyed)
        wider = [rng.random(8).tolist() for rng in spawn_rngs(123, 9)][:5]
        assert wider == draws

    def test_trial_makespans_differ_across_replicates(self, workflow, platform):
        """Independent replicate streams produce distinct realizations."""
        sched = HeftScheduler("OneVMperTask").schedule(workflow, platform)
        report = robustness_study(sched, rel_std=0.4, trials=6, seed=3)
        assert len(set(report.realized_makespans)) > 1
