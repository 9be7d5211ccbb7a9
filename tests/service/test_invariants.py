"""Property/invariant tests of the multi-tenant service loop.

Seeded random DAGs stream through a :class:`WorkflowService` under
every online provisioning policy; the per-run executors are captured so
the structural invariants can be checked at two levels:

* per submission — :func:`tests.conftest.assert_schedule_invariants`
  (finish >= start, precedence, no VM overlap within a run);
* fleet-global — no VM ever runs two tasks at once *across*
  submissions, realized intervals sit inside rental windows, billing
  equals per-VM uptime rounded up to whole BTUs, admission arithmetic
  is conserved, and the budget guard never lets a tenant's committed
  estimates exceed its budget.
"""

from __future__ import annotations

import math

import pytest

from repro.service import loop as service_loop
from repro.service.admission import default_estimator
from repro.service.arrivals import WorkflowRequest, poisson_arrivals
from repro.service.loop import WorkflowService
from repro.simulator.online import OnlineCloudExecutor
from repro.workflows.generators import random_layered
from tests.conftest import assert_schedule_invariants

POLICIES = (
    "OneVMperTask",
    "StartParNotExceed",
    "StartParExceed",
    "AllParNotExceed",
    "AllParExceed",
)

_TOL = 1e-6


@pytest.fixture
def captured(monkeypatch):
    """Capture every executor the service spawns, in start order.

    Returns a *filter*: ``captured(service)`` yields only that
    service's executors — a timed-out sweep cell from another test may
    still be running in an abandoned helper thread and creating
    executors of its own while this test runs.
    """
    store = []

    def factory(*args, **kwargs):
        executor = OnlineCloudExecutor(*args, **kwargs)
        store.append(executor)
        return executor

    monkeypatch.setattr(service_loop, "OnlineCloudExecutor", factory)

    def of_service(service):
        return [ex for ex in store if ex.sim is service.sim]

    return of_service


def _stream(seed, count=12, tenants=3, mean_interarrival=900.0):
    """A deterministic multi-tenant stream of random layered DAGs."""
    shapes = [
        random_layered(
            layers=3, width_range=(1, 3), seed=seed + k, name=f"rand{k}"
        )
        for k in range(3)
    ]
    return poisson_arrivals(
        shapes,
        count=count,
        tenants=tenants,
        mean_interarrival=mean_interarrival,
        seed=seed,
    )


def _intervals_by_vm(executors):
    """vm id -> sorted [(start, finish, run:task)] across all runs."""
    by_vm = {}
    for ex in executors:
        for tid, vid in ex.task_vm.items():
            by_vm.setdefault(vid, []).append(
                (ex.task_start[tid], ex.task_finish[tid], f"{ex.attach_no}:{tid}")
            )
    for intervals in by_vm.values():
        intervals.sort()
    return by_vm


@pytest.mark.parametrize("seed", (0, 7))
@pytest.mark.parametrize("policy", POLICIES)
def test_service_run_invariants(platform, policy, seed, captured):
    service = WorkflowService(
        platform, policy=policy, admission="fair", max_concurrent=4
    )
    result = service.run(_stream(seed))
    executors = captured(service)

    # every admitted workflow ran to completion through one executor
    assert len(executors) == result.admitted == result.completed
    for ex in executors:
        assert_schedule_invariants(ex, ex.workflow)

    # fleet-global mutual exclusion: realized intervals on one VM are
    # disjoint even when they belong to different tenants' submissions
    by_vm = _intervals_by_vm(executors)
    for vid, intervals in by_vm.items():
        for (_, f1, a), (s2, _, b) in zip(intervals, intervals[1:]):
            assert s2 >= f1 - _TOL, f"vm{vid} runs {b} before {a} ends"

    # every interval sits inside its VM's rental window
    for vid, intervals in by_vm.items():
        vm = service.fleet.vms[vid]
        assert min(s for s, _, _ in intervals) >= vm.started_at - _TOL
        assert max(f for _, f, _ in intervals) <= vm.free_at + _TOL

    service.fleet.finalize(platform.billing)  # raises unless conserved


@pytest.mark.parametrize("policy", ("StartParNotExceed", "AllParExceed"))
def test_billing_is_uptime_rounded_to_btu(platform, policy):
    service = WorkflowService(
        platform, policy=policy, admission="fifo", max_concurrent=4
    )
    result = service.run(_stream(3))

    billing = platform.billing
    region = service.region
    btu = platform.btu_seconds
    expect_btus = 0
    expect_cost = 0.0
    for vm in service.fleet.vms:
        end = vm.crashed_at if vm.crashed else vm.free_at
        uptime = max(end - vm.started_at, 0.0)
        vm_btus = max(1, math.ceil(uptime / btu - 1e-9))
        assert vm_btus == billing.btus(uptime)
        expect_btus += vm_btus
        expect_cost += vm_btus * region.price(vm.itype)
    assert result.btus == expect_btus
    assert result.rent_cost == pytest.approx(expect_cost)

    # the per-owner bills partition the fleet totals exactly
    bills = service.fleet.finalize(billing, region).bills
    assert sum(b.vm_count for b in bills.values()) == len(service.fleet.vms)
    assert sum(b.btus for b in bills.values()) == expect_btus
    assert sum(b.rent_cost for b in bills.values()) == pytest.approx(expect_cost)
    for owner, bill in bills.items():
        owned = [vm for vm in service.fleet.vms if vm.owner == owner]
        assert bill.vm_count == len(owned)


def test_admission_arithmetic_is_conserved(platform):
    result = WorkflowService(
        platform, admission="fair", max_concurrent=2
    ).run(_stream(11, count=15, tenants=4))

    assert result.admitted + result.rejected == result.submitted
    assert result.admitted <= result.submitted
    assert result.completed == result.admitted  # admitted work never killed
    per_tenant = result.tenants.values()
    assert sum(t.submitted for t in per_tenant) == result.submitted
    for t in per_tenant:
        assert t.admitted + t.rejected == t.submitted
        assert t.completed == t.admitted


def test_budget_guard_never_exceeds_tenant_budget(platform, diamond):
    # price one submission, then grant each tenant ~2.5 workflows' worth
    probe = WorkflowService(platform, admission="budget")
    one = default_estimator(
        WorkflowRequest(tenant="t", workflow=diamond, arrival=0.0), probe
    )
    assert one > 0
    budget = 2.5 * one

    requests = poisson_arrivals(
        diamond,
        count=20,
        tenants=4,
        mean_interarrival=200.0,
        seed=9,
        budget=budget,
    )
    service = WorkflowService(
        platform, admission="budget", max_concurrent=2
    )
    result = service.run(requests)

    assert result.rejected > 0 and result.completed > 0
    for t in result.tenants.values():
        # the admission ledger never overshoots, even while requests of
        # one tenant sit queued together (commitment at admit)
        assert t.spent_estimate <= budget + 1e-9
        if t.submitted >= 3:
            assert t.admitted == 2  # identical estimates => floor(2.5)
    service.fleet.finalize(platform.billing)  # raises unless conserved


def test_fleet_owners_are_tenants(platform, captured):
    service = WorkflowService(platform, max_concurrent=4)
    result = service.run(_stream(5, count=10, tenants=3))
    tenants = set(result.tenants)
    assert {vm.owner for vm in service.fleet.vms} <= tenants
    # attribution: each VM's owner is the tenant whose run rented it;
    # a VM's placements are counted from the runs' task_vm maps (a
    # closed VM keeps no roster)
    rented_by = {}
    placements = {}
    for ex in captured(service):
        for vid in set(ex.task_vm.values()):
            rented_by.setdefault(vid, ex.owner)
        for vid in ex.task_vm.values():
            placements[vid] = placements.get(vid, 0) + 1
    for vm in service.fleet.vms:
        if vm.id in rented_by and placements[vm.id] == 1:
            assert vm.owner == rented_by[vm.id]
