"""The v1.2 keyword spellings, retired in 1.7.0, are plain unknown
keywords: every entry point rejects them with python's own
:class:`TypeError`."""

import warnings

import pytest

import repro.api as api


def _rejects(name):
    return pytest.raises(TypeError, match=f"unexpected keyword argument '{name}'")


def _tiny_sweep_kwargs():
    return dict(
        workflows={"sequential": api.sequential()},
        scenarios=[api.scenario("best")],
        strategies=[api.strategy("OneVMperTask-s")],
    )


class TestRunSweep:
    def test_n_jobs_retired(self):
        with _rejects("n_jobs"):
            api.run_sweep(n_jobs=1, **_tiny_sweep_kwargs())

    def test_rng_seed_retired(self):
        with _rejects("rng_seed"):
            api.run_sweep(rng_seed=3, **_tiny_sweep_kwargs())

    def test_pool_retired(self):
        with _rejects("pool"):
            api.run_sweep(pool="serial", **_tiny_sweep_kwargs())

    def test_error_mode_retired(self):
        with _rejects("error_mode"):
            api.run_sweep(error_mode="raise", **_tiny_sweep_kwargs())

    def test_canonical_spellings_do_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sweep = api.run_sweep(jobs=1, seed=3, **_tiny_sweep_kwargs())
        assert sweep.metrics


class TestSimulatorEntryPoints:
    def test_run_with_faults_rejects_faults(self):
        platform = api.CloudPlatform.ec2()
        sched = api.reference_schedule(api.sequential(), platform)
        with _rejects("faults"):
            api.run_with_faults(sched, faults=api.FaultPlan())
        result = api.run_with_faults(sched, fault_plan=api.FaultPlan())
        assert result.makespan > 0

    def test_run_online_rejects_recovery_policy(self):
        platform = api.CloudPlatform.ec2()
        with _rejects("recovery_policy"):
            api.run_online(api.sequential(), platform, recovery_policy="retry")
        result = api.run_online(api.sequential(), platform, recovery="retry")
        assert result.makespan > 0


class TestExperimentEntryPoints:
    def test_replicate_rejects_pool(self):
        with _rejects("pool"):
            api.replicate(
                seeds=[1],
                workflows={"sequential": api.sequential()},
                strategies=[api.strategy("OneVMperTask-s")],
                pool="serial",
            )

    def test_run_fault_sweep_rejects_recovery_policy(self):
        with _rejects("recovery_policy"):
            api.run_fault_sweep(
                workflow=api.sequential(),
                workflow_name="sequential",
                strategies=[api.strategy("OneVMperTask-s")],
                intensities=[0.0],
                fault_seeds=1,
                recovery_policy="retry",
            )
