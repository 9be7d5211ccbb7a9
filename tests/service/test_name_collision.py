"""Request names are labels, not roster keys.

A shared VM's roster names each reservation by its run and task, so
two submissions of one DAG under one name never share an entry: a
re-placement off a live VM leaves the other run's reservation in
place, and a later crash of that VM reclaims it.  The same stream with
the names made unique must therefore end identically: with the same
rollup, or with the same give-up.
"""

from __future__ import annotations

from repro.errors import FaultError
from repro.service.arrivals import WorkflowRequest
from repro.service.loop import WorkflowService
from repro.simulator.faults import FaultPlan
from repro.workflows.generators import mapreduce


def _serve(platform, names, seed):
    workflow = mapreduce()
    requests = [
        WorkflowRequest(tenant="t", workflow=workflow, arrival=0.0, name=name)
        for name in names
    ]
    service = WorkflowService(
        platform,
        policy="StartParExceed",
        fault_plan=FaultPlan(seed=seed, vm_crash_rate=1 / 2000, task_fail_prob=0.3),
        recovery="resubmit",
    )
    try:
        result = service.run(requests)
    except FaultError as exc:
        return str(exc)
    return (
        result.completed,
        repr(result.rollup()),
        [w.finished for w in result.workflows],
    )


def test_same_named_requests_run_like_unique_ones(platform):
    """Both streams give up alike: a reducer's eight attempts each die
    while running, five of them with their VM."""
    same = _serve(platform, ("x", "x", "x"), seed=1)
    assert same == _serve(platform, ("a", "b", "c"), seed=1)
    assert same == "task 'reduce_1' failed 8 times; recovery gave up"


def test_same_named_requests_complete_like_unique_ones(platform):
    same = _serve(platform, ("x", "x", "x"), seed=0)
    assert same == _serve(platform, ("a", "b", "c"), seed=0)
    assert same[0] == 3
