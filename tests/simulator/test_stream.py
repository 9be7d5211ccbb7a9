"""Tests for multi-workflow stream simulation."""

import pytest

from repro.cloud.platform import CloudPlatform
from repro.errors import ExperimentError
from repro.simulator.stream import (
    Submission,
    merge_stream,
    poisson_stream,
    run_stream,
)
from repro.workflows.generators import mapreduce, montage, sequential


@pytest.fixture(scope="module")
def platform():
    return CloudPlatform.ec2()


class TestMerge:
    def test_namespaced_ids(self):
        merged, release, groups = merge_stream(
            [Submission(sequential(3), 0.0), Submission(sequential(3), 100.0)]
        )
        assert len(merged) == 6
        assert "w0:step_000" in merged
        assert "w1:step_000" in merged
        assert groups[0] == [f"w0:step_{i:03d}" for i in range(3)]

    def test_release_times_on_entries_only(self):
        merged, release, _ = merge_stream(
            [Submission(montage(), 0.0), Submission(montage(), 500.0)]
        )
        assert release["w1:mProject_0"] == 500.0
        assert "w1:mJPEG" not in release

    def test_no_cross_instance_edges(self):
        merged, _, groups = merge_stream(
            [Submission(sequential(2), 0.0), Submission(sequential(2), 0.0)]
        )
        for u, v, _gb in merged.edges():
            assert u.split(":")[0] == v.split(":")[0]

    def test_empty_rejected(self):
        with pytest.raises(ExperimentError):
            merge_stream([])

    def test_negative_arrival_rejected(self):
        with pytest.raises(ExperimentError):
            Submission(sequential(2), -1.0)

    @pytest.mark.parametrize("arrival", [float("nan"), float("inf")])
    def test_non_finite_arrival_rejected(self, arrival):
        with pytest.raises(ExperimentError, match="finite"):
            Submission(sequential(2), arrival)


class TestRunStream:
    def test_instances_complete_after_arrival(self, platform):
        subs = [Submission(sequential(3), 0.0), Submission(sequential(3), 5000.0)]
        result = run_stream(subs, platform, policy="StartParExceed")
        for (arrival, finish, response), sub in zip(result.per_instance, subs):
            assert arrival == sub.arrival
            assert finish >= arrival + sub.workflow.total_work() - 1e-6
            assert response == pytest.approx(finish - arrival)

    def test_shared_fleet_reuses_alive_vms(self, platform):
        """The second instance's *non-entry* work lands on the first
        instance's VM while it is still alive (entry tasks always rent
        under StartPar*)."""
        subs = [
            Submission(sequential(2), 0.0),  # vm0 busy 0..2000, alive to 3600
            Submission(sequential(2), 2500.0),
        ]
        result = run_stream(subs, platform, policy="StartParExceed")
        assert result.vm_count == 2  # one rental per instance entry
        by_vm = {}
        for tid, vm in result.online.task_vm.items():
            by_vm.setdefault(vm, set()).add(tid.split(":")[0])
        # some VM hosted tasks of both instances: cross-instance reuse
        assert any(len(instances) == 2 for instances in by_vm.values())

    def test_gap_larger_than_horizon_rents_fresh(self, platform):
        subs = [
            Submission(sequential(2), 0.0),
            Submission(sequential(2), 20_000.0),  # first VM long gone
        ]
        result = run_stream(subs, platform, policy="StartParExceed")
        assert result.vm_count == 2

    def test_response_metrics(self, platform):
        subs = poisson_stream(mapreduce(mappers=3, reducers=1), 4, 1000.0, seed=1)
        result = run_stream(subs, platform, policy="AllParExceed")
        assert len(result.per_instance) == 4
        assert result.mean_response <= result.max_response
        assert result.idle_seconds >= 0


class TestPoissonStream:
    def test_reproducible(self):
        a = poisson_stream(sequential(2), 5, 100.0, seed=3)
        b = poisson_stream(sequential(2), 5, 100.0, seed=3)
        assert [s.arrival for s in a] == [s.arrival for s in b]

    def test_arrivals_sorted_starting_zero(self):
        subs = poisson_stream(sequential(2), 5, 100.0, seed=0)
        arrivals = [s.arrival for s in subs]
        assert arrivals[0] == 0.0
        assert arrivals == sorted(arrivals)

    def test_zero_interarrival_is_burst(self):
        subs = poisson_stream(sequential(2), 3, 0.0)
        assert all(s.arrival == 0.0 for s in subs)

    def test_validation(self):
        with pytest.raises(ExperimentError):
            poisson_stream(sequential(2), 0, 100.0)
        with pytest.raises(ExperimentError):
            poisson_stream(sequential(2), 3, -1.0)

    @pytest.mark.parametrize("mean", [float("nan"), float("inf")])
    def test_non_finite_interarrival_rejected(self, mean):
        with pytest.raises(ExperimentError, match="finite"):
            poisson_stream(sequential(2), 3, mean)
