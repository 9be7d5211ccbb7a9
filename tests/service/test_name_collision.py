"""Request names are labels, not roster keys.

A shared VM's roster names each reservation by its run and task, so
two submissions of one DAG under one name never share an entry: a
re-placement off a live VM leaves the other run's reservation in
place, and a later crash of that VM reclaims it.  The same stream with
the names made unique must therefore run identically.
"""

from __future__ import annotations

from repro.service.arrivals import WorkflowRequest
from repro.service.loop import WorkflowService
from repro.simulator.faults import FaultPlan
from repro.workflows.generators import mapreduce


def _serve(platform, names):
    workflow = mapreduce()
    requests = [
        WorkflowRequest(tenant="t", workflow=workflow, arrival=0.0, name=name)
        for name in names
    ]
    service = WorkflowService(
        platform,
        policy="StartParExceed",
        fault_plan=FaultPlan(seed=1, vm_crash_rate=1 / 2000, task_fail_prob=0.3),
        recovery="resubmit",
    )
    return service.run(requests)


def test_same_named_requests_run_like_unique_ones(platform):
    same = _serve(platform, ("x", "x", "x"))
    unique = _serve(platform, ("a", "b", "c"))
    assert same.completed == unique.completed == 3
    assert repr(same.rollup()) == repr(unique.rollup())
    assert [w.finished for w in same.workflows] == [
        w.finished for w in unique.workflows
    ]
