"""Instance streams: many submissions of one workflow over time.

A stream is a tuple of ``WorkflowRequest``s built by ``poisson_arrivals``
and run by ``run_service`` on one shared fleet, one online executor per
instance.  These tests check the stream's edges (what a request and the
generator refuse) and that instances of one DAG stay apart.
"""

import pytest

from repro.errors import ExperimentError
from repro.service.arrivals import WorkflowRequest, poisson_arrivals, trace_arrivals
from repro.workflows.generators import montage, sequential
from tests.service.test_streams import _requests, _serve


class TestMerge:
    def test_namespaced_ids(self):
        wf = sequential(3)
        requests = poisson_arrivals(wf, 2, tenants=1, mean_interarrival=100.0)
        assert len({r.name for r in requests}) == 2
        result, runs = _serve(requests, "StartParExceed")
        assert result.completed == 2
        # each instance keeps the DAG's own ids on its own executor
        for request in requests:
            assert set(runs[request.name].task_start) == set(wf.task_ids)

    def test_release_times_on_entries_only(self):
        wf = montage()
        entries = wf.entry_tasks()
        _, runs = _serve(_requests(wf, (0.0, 500.0)), "StartParExceed")
        late = runs["w1"]
        # the arrival gates the entry tasks; the rest wait on their inputs
        assert min(late.task_start[t] for t in entries) == 500.0
        ready = max(late.task_finish[p] for p in wf.predecessors("mJPEG"))
        assert late.task_start["mJPEG"] >= ready > 500.0

    def test_empty_rejected(self):
        with pytest.raises(ExperimentError):
            poisson_arrivals([], 1, tenants=1, mean_interarrival=100.0)
        with pytest.raises(ExperimentError):
            trace_arrivals([], {"montage": montage()})

    def test_negative_arrival_rejected(self):
        with pytest.raises(ExperimentError):
            WorkflowRequest(tenant="t", workflow=sequential(2), arrival=-1.0)

    @pytest.mark.parametrize("arrival", [float("nan"), float("inf")])
    def test_non_finite_arrival_rejected(self, arrival):
        with pytest.raises(ExperimentError, match="finite"):
            WorkflowRequest(tenant="t", workflow=sequential(2), arrival=arrival)


def _stream(count, mean, seed=0):
    return poisson_arrivals(
        sequential(2), count, tenants=1, mean_interarrival=mean, seed=seed
    )


class TestPoissonStream:
    def test_reproducible(self):
        a = _stream(5, 100.0, seed=3)
        b = _stream(5, 100.0, seed=3)
        assert [r.arrival for r in a] == [r.arrival for r in b]

    def test_arrivals_sorted_starting_zero(self):
        arrivals = [r.arrival for r in _stream(5, 100.0)]
        assert arrivals[0] == 0.0
        assert arrivals == sorted(arrivals)

    def test_validation(self):
        with pytest.raises(ExperimentError):
            _stream(0, 100.0)
        with pytest.raises(ExperimentError):
            _stream(3, -1.0)

    @pytest.mark.parametrize("mean", [float("nan"), float("inf")])
    def test_non_finite_interarrival_rejected(self, mean):
        with pytest.raises(ExperimentError, match="finite"):
            _stream(3, mean)
