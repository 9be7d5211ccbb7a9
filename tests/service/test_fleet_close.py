"""Closed-VM bill columns against the record-keeping oracle.

A :class:`~repro.service.fleet.FleetManager` closes every dead VM into
per-id bill columns and drops its :class:`FleetVM` record;
``FleetManager.vms`` then yields a frozen :class:`ClosedVM` row view for
a closed id.  ``ScanFleetManager`` (``tests/oracles/fleet_scan.py``)
closes nothing and bills by walking its records.  Over policies x
admissions x fault plans the two must agree bit for bit: the service
rollup, the fleet's ``finalize()``, every ``vms[i]`` field, and a
private ``run_online``'s bill and trace.
"""

from __future__ import annotations

import dataclasses
import gc

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.experiments.scenarios import price_scenario
from repro.experiments.service import ServiceCell, build_requests
from repro.market.recovery import RebidHigher
from repro.obs.metrics import MetricsRegistry
from repro.service.fleet import ClosedVM, FleetManager, FleetVM
from repro.service.loop import WorkflowService
from repro.simulator.faults import FaultPlan
from repro.simulator.online import OnlineCloudExecutor
from tests.oracles.fleet_scan import ScanFleetManager

POLICIES = (
    "OneVMperTask",
    "AllParExceed",
    "AllParNotExceed",
    "StartParExceed",
    "StartParNotExceed",
)
ADMISSIONS = ("fifo", "fair", "budget")
PLANS = ("none", "crash", "spot_spike", "cold_warm")

#: every field a row view carries, plus liveness
ROW_FIELDS = tuple(f.name for f in dataclasses.fields(ClosedVM)) + ("dead",)


def _scenario(platform, plan: str, plan_seed: int, recovery: str):
    """``(platform, fault plan, recovery factory)`` for one drawn plan."""
    if plan == "none":
        return platform, None, lambda: None
    if plan == "crash":
        faults = FaultPlan(
            seed=plan_seed, vm_crash_rate=1 / 40000, task_fail_prob=0.05
        )
        return platform, faults, lambda: recovery
    if plan == "spot_spike":
        faults = FaultPlan(seed=plan_seed, market=price_scenario(plan).market)
        return platform, faults, lambda: RebidHigher(checkpoint_on_warning=True)
    cold = dataclasses.replace(platform, prebooted=False, boot_seconds=60.0)
    faults = FaultPlan(
        seed=plan_seed,
        boot_cold_seconds=45.0,
        boot_warm_pool=4,
        boot_warm_seconds=5.0,
    )
    return cold, faults, lambda: None


def _assert_same_rows(fleet, oracle) -> None:
    assert len(fleet.vms) == len(oracle.vms)
    for i in range(len(oracle.vms)):
        got, want = fleet.vms[i], oracle.vms[i]
        for name in ROW_FIELDS:
            assert repr(getattr(got, name)) == repr(getattr(want, name)), (i, name)


@seed(2013)
@settings(max_examples=40, deadline=None, database=None)
@given(
    policy=st.sampled_from(POLICIES),
    admission=st.sampled_from(ADMISSIONS),
    plan=st.sampled_from(PLANS),
    recovery=st.sampled_from(("resubmit", "replan")),
    run_seed=st.integers(0, 10_000),
)
def test_closed_fleet_bills_like_the_record_walk(
    platform, policy, admission, plan, recovery, run_seed
):
    plat, faults, make_recovery = _scenario(platform, plan, run_seed, recovery)
    cell = ServiceCell(
        platform=plat,
        policy=policy,
        admission=admission,
        count=10,
        tenants=3,
        mean_interarrival=600.0,
        seed=run_seed,
        budget=1.0 if admission == "budget" else float("inf"),
        max_concurrent=4,
    )
    requests = build_requests(cell)

    def serve(fleet):
        service = WorkflowService(
            plat,
            policy=policy,
            admission=admission,
            max_concurrent=cell.max_concurrent,
            fault_plan=faults,
            recovery=make_recovery(),
            fleet=fleet,
        )
        return service, service.run(requests)

    closing, got = serve(None)
    keeping, want = serve(ScanFleetManager(region=plat.default_region))
    assert got == want
    assert repr(got.rollup()) == repr(want.rollup())
    market = faults.market if faults is not None else None
    bill_seed = faults.seed if faults is not None else 0
    assert repr(
        closing.fleet.finalize(plat.billing, market=market, seed=bill_seed)
    ) == repr(keeping.fleet.finalize(plat.billing, market=market, seed=bill_seed))
    _assert_same_rows(closing.fleet, keeping.fleet)
    assert closing.fleet.counters() == keeping.fleet.counters()

    # a private run bills its own fleet through the row views
    workflow = requests[0].workflow
    solo = []
    for fleet in (None, ScanFleetManager(region=plat.default_region)):
        metrics = MetricsRegistry()
        result = OnlineCloudExecutor(
            workflow,
            plat,
            policy=policy,
            itype=plat.itype("small"),
            fault_plan=faults,
            recovery=make_recovery(),
            metrics=metrics,
            fleet=fleet,
        ).run()
        solo.append((result, metrics.as_dict()))
    (a, m_a), (b, m_b) = solo
    assert repr(a.rent_cost) == repr(b.rent_cost)
    assert repr(a.idle_seconds) == repr(b.idle_seconds)
    assert a.events == b.events
    assert a.faults == b.faults
    assert m_a == m_b


def test_row_views(platform):
    """Live ids give their records; closed ids give frozen row views
    that bill, rank and report liveness like the dropped record."""
    itype = platform.itype("small")
    btu = platform.btu_seconds
    fleet = FleetManager(region=platform.default_region)
    reaped = fleet.rent(itype, 0.0, 100.0, owner="a")
    reaped.busy_seconds = 90.0
    crashed = fleet.rent(itype, 10.0, 200.0, owner="b")
    live = fleet.rent(itype, 20.0, 5 * btu, owner="a")
    for vm in (reaped, crashed, live):
        fleet.note_use(vm)
    fleet.mark_crashed(crashed, 150.0)
    crashed.preempted = True
    fleet.notify_crash(crashed)
    assert [vm.id for vm in fleet.reap(btu + 1.0, btu)] == [reaped.id]

    assert fleet.vms[live.id] is live and fleet.vms[-1] is live
    assert fleet.live_vm(live.id) is live
    assert fleet.live_vm(reaped.id) is None and fleet.live_vm(crashed.id) is None
    assert [fleet.itype_of(i) for i in range(3)] == [itype] * 3
    row = fleet.vms[reaped.id]
    assert isinstance(row, ClosedVM) and row.dead
    assert (row.owner, row.free_at, row.busy_seconds) == ("a", 100.0, 90.0)
    assert row.horizon(btu) == reaped.horizon(btu) == btu
    assert not row.crashed
    with pytest.raises(dataclasses.FrozenInstanceError):
        row.free_at = 0.0
    gone = fleet.vms[crashed.id]
    assert (gone.crashed, gone.crashed_at, gone.preempted) == (True, 150.0, True)
    assert fleet.uptime(gone) == 140.0
    assert [vm.id for vm in fleet.vms] == [0, 1, 2]
    assert [vm.id for vm in fleet.vms[1:]] == [1, 2]
    with pytest.raises(IndexError):
        fleet.vms[3]


def test_finalize_closes_lazily_crashed_records(platform):
    """A crash nobody was notified of leaves its record open; finalize
    closes it first and bills it at the crash."""
    itype = platform.itype("small")
    fleets = (FleetManager(), ScanFleetManager())
    for fleet in fleets:
        vm = fleet.rent(itype, 0.0, 5000.0, owner="t")
        fleet.mark_crashed(vm, 100.0)
        fleet.rent(itype, 0.0, 50.0, owner="t")
    got, want = (f.finalize(platform.billing, platform.default_region) for f in fleets)
    assert repr(got) == repr(want)
    assert isinstance(fleets[0].vms[0], ClosedVM)
    assert isinstance(fleets[0].vms[1], FleetVM)  # alive: stays open


def test_no_record_survives_a_reaped_vm(platform):
    """Memory regression without reading RSS: after a seeded service run
    of a few hundred workflows, the only ``FleetVM`` objects left are
    the fleet's still-open records, and no finished run's executor
    outlives its reservations (with or without a crash plan)."""
    cell = ServiceCell(
        platform=platform,
        policy="StartParNotExceed",
        admission="fair",
        count=300,
        tenants=20,
        mean_interarrival=180.0,
        seed=2013,
        max_concurrent=32,
    )
    requests = build_requests(cell)

    def count(kind) -> int:
        gc.collect()
        return sum(isinstance(o, kind) for o in gc.get_objects())

    crash_plan = FaultPlan(seed=1, vm_crash_rate=1 / 40000)
    for faults in (None, crash_plan):
        before = count(FleetVM)
        service = WorkflowService(
            platform,
            policy=cell.policy,
            admission="fair",
            max_concurrent=32,
            fault_plan=faults,
            recovery="resubmit" if faults is not None else None,
        )
        result = service.run(requests)
        open_records = len(service.fleet.alive())
        assert count(FleetVM) - before == open_records
        assert result.vm_count > 20 * open_records  # most VMs were closed
        assert count(OnlineCloudExecutor) == 0
        if faults is not None:
            assert service.fleet.counters()["crashed"] > 0
        del service  # its open records must not count in the next case
