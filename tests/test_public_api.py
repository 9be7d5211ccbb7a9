"""Smoke tests for the package's public surface."""

import repro


class TestPublicApi:
    def test_all_symbols_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"__all__ exports missing symbol {name!r}"

    def test_version(self):
        assert repro.__version__.count(".") == 2

    def test_exception_hierarchy(self):
        assert issubclass(repro.WorkflowError, repro.ReproError)
        assert issubclass(repro.WorkflowParseError, repro.WorkflowError)
        assert issubclass(repro.BillingError, repro.PlatformError)
        assert issubclass(repro.InvalidScheduleError, repro.SchedulingError)
        assert issubclass(repro.BudgetExceededError, repro.SchedulingError)
        for exc in (
            repro.PlatformError,
            repro.SchedulingError,
            repro.SimulationError,
            repro.ExperimentError,
        ):
            assert issubclass(exc, repro.ReproError)

    def test_quickstart_docstring_flow(self):
        """The module docstring's example must actually run."""
        wf = repro.montage()
        platform = repro.CloudPlatform.ec2()
        sched = repro.HeftScheduler("StartParNotExceed").schedule(
            wf, platform, itype=platform.itype("medium")
        )
        assert sched.makespan > 0 and sched.total_cost > 0
        repro.simulate_schedule(sched)

    def test_registries_complete(self):
        from repro.core.allocation.base import SCHEDULING_ALGORITHMS
        from repro.core.provisioning.base import PROVISIONING_POLICIES

        assert len(PROVISIONING_POLICIES) == 5
        expected = {
            "HEFT",
            "AllPar",
            "CPA-Eager",
            "GAIN",
            "AllPar1LnS",
            "AllPar1LnSDyn",
            "RoundRobin",
            "LeastLoad",
            "SHEFT-Deadline",
        }
        assert expected <= set(SCHEDULING_ALGORITHMS)
