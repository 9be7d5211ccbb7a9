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
import random

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.experiments.scenarios import price_scenario
from repro.experiments.service import ServiceCell, build_requests
from repro.market.recovery import RebidHigher
from repro.market.spot import ON_DEMAND, spot
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
    assert [vm.id for vm in fleet.reap(btu + 1.0)] == [reaped.id]

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


# ----------------------------------------------------------------------
# finalize: the array bill against the record walk on hand-built fleets
# ----------------------------------------------------------------------
def _twins(build):
    """A closing fleet and the record-keeping oracle, both built by the
    same *build(fleet)*."""
    fleets = (FleetManager(), ScanFleetManager())
    for fleet in fleets:
        build(fleet)
    return fleets


def _same_bill(platform, build, market=None, seed=0):
    got, want = (
        fleet.finalize(platform.billing, platform.default_region, market, seed)
        for fleet in _twins(build)
    )
    assert repr(got) == repr(want)
    return got


def _use(fleet, vm, seconds):
    vm.free_at += seconds
    vm.busy_seconds += seconds
    fleet.note_use(vm)


def test_finalize_mixed_market_fleet(platform):
    """Fixed-price rentals, market on-demand and spot purchases on a
    stepped price trace, two flavors and three owners: the market VMs
    keep the scalar realized cost, the rest bill per column."""
    small, large = platform.itype("small"), platform.itype("large")
    market = price_scenario("spot_spike").market

    def build(fleet):
        for i, (itype, owner, purchase) in enumerate(
            [
                (small, "a", None),
                (large, "b", spot(0.5)),
                (small, "c", ON_DEMAND),
                (large, "a", None),
                (small, "b", spot()),
                (small, "c", spot(0.5)),
            ]
        ):
            vm = fleet.rent(itype, 300.0 * i, 300.0 * i + 30.0, owner, purchase)
            _use(fleet, vm, 1234.5 * (i + 1))
        fleet.reap(20_000.0)

    roll = _same_bill(platform, build, market=market, seed=3)
    assert sorted(roll.bills) == ["a", "b", "c"]
    # the market priced the spot VMs otherwise than the list price would
    assert roll.rent_cost != _same_bill(platform, build).rent_cost


def test_finalize_crashed_and_zero_uptime(platform):
    """Crashed VMs stop paying at the crash (closed by notify_crash, or
    left open and closed by finalize); a rental that never ran, or
    crashed at its start, pays nothing."""
    itype = platform.itype("small")

    def build(fleet):
        fleet.rent(itype, 100.0, 100.0, owner="z")  # zero uptime
        notified = fleet.rent(itype, 0.0, 30.0, owner="x")
        _use(fleet, notified, 9000.0)
        fleet.mark_crashed(notified, 4000.0)
        fleet.notify_crash(notified)
        lazy = fleet.rent(itype, 50.0, 80.0, owner="y")
        _use(fleet, lazy, 500.0)
        fleet.mark_crashed(lazy, 50.0)  # crashed at its start
        open_vm = fleet.rent(itype, 60.0, 90.0, owner="x")
        _use(fleet, open_vm, 7300.0)

    roll = _same_bill(platform, build)
    assert roll.bills["z"].btus == 0 and roll.bills["z"].rent_cost == 0.0
    assert roll.bills["y"].btus == 0
    assert roll.bills["x"].btus == 2 + 3


def test_finalize_empty_fleet(platform):
    roll = _same_bill(platform, lambda fleet: None)
    assert repr(roll) == repr(FleetManager().finalize(platform.billing))
    assert (roll.bills, roll.btus, roll.utilization) == ({}, 0, 0.0)


def test_finalize_large_irregular_fleet(platform):
    """6,000 VMs of irregular lifetimes over five owners, two flavors,
    crashes and reaps: every per-owner and fleet total adds its VMs in
    id order (a pairwise sum gives other bits here)."""
    flavors = (platform.itype("small"), platform.itype("medium"))
    btu = platform.btu_seconds

    def build(fleet):
        rng = random.Random(11)
        now = 0.0
        for _ in range(6000):
            now += rng.expovariate(1 / 40.0)
            vm = fleet.rent(
                rng.choice(flavors), now, now + 30.0 * rng.random(), f"t{rng.randrange(5)}"
            )
            _use(fleet, vm, rng.lognormvariate(7.0, 1.3))
            if rng.random() < 0.03:
                fleet.mark_crashed(vm, now + rng.random() * (vm.free_at - now))
                fleet.notify_crash(vm)
            if rng.random() < 0.1:
                fleet.reap(now)
        fleet.reap(now + 2 * btu)

    roll = _same_bill(platform, build)
    assert len(roll.bills) == 5
    assert sum(b.vm_count for b in roll.bills.values()) == 6000


def test_finalize_freed_before_start_names_the_first_vm(platform):
    itype = platform.itype("small")

    def build(fleet):
        fleet.rent(itype, 0.0, 10.0)
        fleet.rent(itype, 100.0, 50.0)
        fleet.rent(itype, 100.0, 100.0 - 1e-10)  # within the slack
        fleet.rent(itype, 200.0, 20.0)

    for fleet in _twins(build):
        with pytest.raises(SimulationError) as caught:
            fleet.finalize(platform.billing, platform.default_region)
        assert str(caught.value) == "vm1 freed at 50.0 before start 100.0"
        # the kept traceback pins no view of the columns: they still grow
        fleet.rent(itype, 300.0, 400.0)
