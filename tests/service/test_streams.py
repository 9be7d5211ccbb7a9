"""Instance-intensive streams through the service loop.

Many instances of one workflow arrive over time onto one shared fleet
(the Liu et al. scenario of the paper's related work).  Each instance
runs as its own online executor, so these tests check what sharing adds
and what it must not change: a VM still alive inside its BTU horizon
serves the next instance, and a lone instance runs exactly like a solo
online run.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.cloud.platform import CloudPlatform
from repro.service import loop as service_loop
from repro.service.arrivals import WorkflowRequest, poisson_arrivals
from repro.service.loop import run_service
from repro.simulator.online import OnlineCloudExecutor, run_online
from repro.workloads.base import apply_model
from repro.workloads.pareto import ParetoModel
from repro.workflows.generators import mapreduce, random_layered, sequential

_PLATFORM = CloudPlatform.ec2()


def _serve(requests, policy):
    """Run *requests*; return the result and each request's executor,
    keyed by request name."""
    runs = []

    def spawn(*args, **kwargs):
        runs.append(OnlineCloudExecutor(*args, **kwargs))
        return runs[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(service_loop, "OnlineCloudExecutor", spawn)
        result = run_service(requests, _PLATFORM, policy=policy, admission="fifo")
    # fifo with no concurrency cap starts requests in arrival order
    return result, dict(zip((r.name for r in requests), runs))


def _requests(workflow, arrivals):
    return tuple(
        WorkflowRequest(tenant="t", workflow=workflow, arrival=a, name=f"w{i}")
        for i, a in enumerate(arrivals)
    )


def _pareto_stream(seed, count, gap):
    shape = random_layered(layers=3, seed=seed)
    wf = apply_model(shape, ParetoModel(), seed=seed)
    return poisson_arrivals(wf, count, tenants=1, mean_interarrival=gap, seed=seed)


def test_instances_finish_after_their_arrival():
    requests = _requests(sequential(3), (0.0, 5000.0))
    result, _ = _serve(requests, "StartParExceed")
    assert result.completed == 2
    for report, request in zip(result.workflows, requests):
        assert report.arrival == request.arrival
        assert report.finished >= report.arrival + request.workflow.total_work() - 1e-6
        assert report.latency == pytest.approx(report.finished - report.arrival)


def test_shared_fleet_reuses_alive_vms():
    """The second instance's non-entry work lands on the first
    instance's VM while it is still alive (entry tasks always rent
    under StartPar*)."""
    # w0 keeps vm0 busy 0..2000, alive to 3600
    result, runs = _serve(_requests(sequential(2), (0.0, 2500.0)), "StartParExceed")
    assert result.vm_count == 2  # one rental per instance entry
    assert set(runs["w0"].task_vm.values()) & set(runs["w1"].task_vm.values())


def test_gap_past_the_horizon_rents_fresh():
    result, runs = _serve(_requests(sequential(2), (0.0, 20_000.0)), "StartParExceed")
    assert result.vm_count == 2  # the first VM is long gone
    assert not set(runs["w0"].task_vm.values()) & set(runs["w1"].task_vm.values())


def test_response_metrics():
    requests = poisson_arrivals(
        mapreduce(mappers=3, reducers=1), 4, tenants=1, mean_interarrival=1000.0, seed=1
    )
    result, _ = _serve(requests, "AllParExceed")
    assert len(result.workflows) == 4
    assert result.latency_p50 <= result.latency_p99
    assert 0 < result.utilization <= 1


def test_zero_interarrival_is_a_burst():
    requests = poisson_arrivals(sequential(2), 3, tenants=1, mean_interarrival=0.0)
    assert all(r.arrival == 0.0 for r in requests)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_single_instance_equals_online_run(seed):
    (request,) = _pareto_stream(seed, 1, 0.0)
    result, runs = _serve((request,), "AllParExceed")
    solo = run_online(request.workflow, _PLATFORM, policy="AllParExceed")
    assert result.makespan == solo.makespan
    assert result.rent_cost == pytest.approx(solo.rent_cost)
    assert runs[request.name].task_start == solo.task_start
