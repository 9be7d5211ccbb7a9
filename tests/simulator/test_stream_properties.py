"""Hypothesis properties of instance streams run on one shared fleet."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from tests.conftest import assert_schedule_invariants
from tests.service.test_streams import _pareto_stream, _serve


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    count=st.integers(1, 4),
    gap=st.floats(0.0, 10_000.0),
    policy=st.sampled_from(["OneVMperTask", "StartParNotExceed", "AllParExceed"]),
)
def test_stream_respects_arrivals_and_dependencies(seed, count, gap, policy):
    requests = _pareto_stream(seed, count, gap)
    result, runs = _serve(requests, policy)
    assert result.completed == count
    for request in requests:
        run = runs[request.name]
        # no task of an instance starts before it arrives
        assert min(run.task_start.values()) >= request.arrival - 1e-6
        # dependencies hold instance-locally
        assert_schedule_invariants(run, request.workflow)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000), count=st.integers(1, 3))
def test_stream_billing_recomputes(seed, count):
    result, runs = _serve(_pareto_stream(seed, count, 2000.0), "StartParExceed")
    spans = {}
    for run in runs.values():
        for tid, vm in run.task_vm.items():
            spans.setdefault(vm, []).append((run.task_start[tid], run.task_finish[tid]))
    rent = 0.0
    for busy in spans.values():
        start = min(s for s, _ in busy)
        end = max(f for _, f in busy)
        rent += max(1, math.ceil((end - start) / 3600.0 - 1e-9)) * 0.08
    assert result.rent_cost == pytest.approx(rent)
