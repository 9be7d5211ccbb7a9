"""Byte-identity property tests for the indexed fleet kernels.

The indexed :class:`~repro.service.fleet.FleetManager` (live-id set,
stamp-guarded expiry/rank/idle heaps — DESIGN.md §14) must be
observationally indistinguishable from the full-scan oracle in
``tests/oracles/fleet_scan.py`` (``ScanFleetManager``,
``ScanOnlineExecutor``): same decision logs, same service rollups,
same metric counters, bit-equal floats.  These tests drive both paths
over the DAG zoo x policies x admissions x seeds and compare entire
results — the same trace-identity contract the static columnar kernels
pin in ``tests/core/test_kernel_equivalence.py``.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.cloud.billing import BillingModel
from repro.cloud.platform import CloudPlatform
from repro.errors import SimulationError
from repro.experiments.service import ServiceCell, build_requests
from repro.obs.metrics import MetricsRegistry
from repro.service import loop as service_loop
from repro.service.fleet import FleetManager
from repro.service.loop import WorkflowService, run_service
from repro.simulator.faults import FaultPlan
from repro.simulator.online import OnlineCloudExecutor, run_online
from repro.workflows.generators import fork_join, mapreduce, random_layered
from tests.oracles.fleet_scan import (
    ScanFleetManager,
    ScanOnlineExecutor,
    scan_service_executors,
)

POLICIES = [
    "OneVMperTask",
    "AllParExceed",
    "AllParNotExceed",
    "StartParExceed",
    "StartParNotExceed",
]
SEEDS = [1, 2013]

SHAPES = {
    "wide": lambda seed: random_layered(
        layers=4, width_range=(6, 14), edge_density=0.4, seed=seed,
        name=f"wide-s{seed}",
    ),
    "diamond": lambda seed: fork_join(
        width=3 + seed % 5, stages=2 + seed % 3, name=f"diamond-s{seed}"
    ),
    "mapreduce": lambda seed: mapreduce(
        mappers=5 + 3 * (seed % 4), reducers=1 + seed % 3, name=f"mr-s{seed}"
    ),
    "deep": lambda seed: random_layered(
        layers=9, width_range=(1, 5), edge_density=0.6, seed=seed,
        name=f"deep-s{seed}",
    ),
}


@pytest.fixture(scope="module")
def platform():
    return CloudPlatform.ec2()


# ----------------------------------------------------------------------
# solo online runs: decision log + metric counter identity
# ----------------------------------------------------------------------
def _online_pair(platform, workflow, policy, fault_plan=None, recovery=None):
    results = []
    registries = []
    for executor, fleet in (
        (OnlineCloudExecutor, None),
        (ScanOnlineExecutor, ScanFleetManager()),
    ):
        metrics = MetricsRegistry()
        result = executor(
            workflow,
            platform,
            policy=policy,
            itype=platform.itype("small"),
            fault_plan=fault_plan,
            recovery=recovery,
            metrics=metrics,
            fleet=fleet,
        ).run()
        results.append(result)
        registries.append(metrics)
    return results, registries


@pytest.mark.parametrize(
    "shape,seed",
    [pytest.param(s, z, id=f"{s}-s{z}") for s in SHAPES for z in SEEDS],
)
def test_online_trace_identical(platform, shape, seed):
    """Every policy's full online trace (task timings, VM ids, events,
    costs) and metric counters match between indexed and reference."""
    workflow = SHAPES[shape](seed)
    for policy in POLICIES:
        (indexed, reference), (m_idx, m_ref) = _online_pair(
            platform, workflow, policy
        )
        assert indexed == reference, f"{policy} trace diverged"
        assert m_idx.as_dict() == m_ref.as_dict(), f"{policy} metrics diverged"


@pytest.mark.parametrize("seed", SEEDS)
def test_online_trace_identical_under_faults(platform, seed):
    """Crashes, boot failures and retries hit the index maintenance
    paths (mark_crashed, the roster fan-out to reclaim); the traces must still
    match event for event."""
    plan = FaultPlan(
        seed=seed, task_fail_prob=0.15, vm_crash_rate=1 / 20000, boot_fail_prob=0.1
    )
    workflow = SHAPES["deep"](seed)
    for policy in POLICIES:
        (indexed, reference), (m_idx, m_ref) = _online_pair(
            platform, workflow, policy, fault_plan=plan, recovery="retry"
        )
        assert indexed == reference, f"{policy} faulted trace diverged"
        assert indexed.faults == reference.faults
        assert m_idx.as_dict() == m_ref.as_dict(), f"{policy} metrics diverged"


# ----------------------------------------------------------------------
# service loop: rollup identity over policies x admissions x seeds
# ----------------------------------------------------------------------
def _service_pair(platform, policy, admission, seed, budget=float("inf")):
    cell = ServiceCell(
        platform=platform,
        policy=policy,
        admission=admission,
        count=14,
        tenants=4,
        mean_interarrival=180.0,
        seed=seed,
        budget=budget,
        max_concurrent=4,
    )
    requests = build_requests(cell)
    def run(fleet=None):
        return run_service(
            requests,
            platform,
            policy=policy,
            admission=admission,
            max_concurrent=cell.max_concurrent,
            fleet=fleet,
        )

    indexed = run()
    with scan_service_executors():
        reference = run(ScanFleetManager())
    return indexed, reference


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("admission", ["fifo", "fair"])
@pytest.mark.parametrize("seed", SEEDS)
def test_service_rollup_identical(platform, policy, admission, seed):
    """The entire ServiceResult — per-tenant bills, latency
    percentiles, utilization, per-workflow reports — is equal between
    the indexed and reference fleets."""
    indexed, reference = _service_pair(platform, policy, admission, seed)
    assert indexed == reference
    assert indexed.rollup() == reference.rollup()


@pytest.mark.parametrize("seed", SEEDS)
def test_service_rollup_identical_budget_admission(platform, seed):
    """Budget-guard admission estimates price workflows through a
    static builder against the shared fleet ledger; rejections and
    rollups must not depend on the fleet's indexing mode."""
    indexed, reference = _service_pair(
        platform, "StartParNotExceed", "budget", seed, budget=2.0
    )
    assert indexed.rejected == reference.rejected
    assert indexed == reference


# ----------------------------------------------------------------------
# manager-level property: random op sequences
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [1, 7, 2013])
def test_manager_random_ops_identical(platform, seed):
    """Drive an indexed and a reference manager through one random
    rent/use/crash/reap sequence; liveness, reap order, selection
    queries and counters must stay equal at every step.

    Some rentals are never noted (a VM rented and left unused must
    still reap and rank), and the two selection queries start at
    random steps, so the lazily built rank heap and idle pool are
    first filled from a populated fleet."""
    itype = platform.itype("small")
    billing = platform.billing
    rng = random.Random(seed)
    indexed = FleetManager(region=platform.default_region)
    reference = ScanFleetManager(region=platform.default_region)
    rank_from, idle_from = rng.randrange(200), rng.randrange(200)
    now = 0.0
    for step in range(400):
        now += rng.expovariate(1 / 300.0)
        roll = rng.random()
        if roll < 0.45 or not indexed.live_count:
            boot = 30.0 + 60.0 * rng.random()
            owner = f"t{rng.randrange(4)}"
            if roll < 0.12:
                # rented, never noted: idle from its boot on
                indexed.rent(itype, now, now + boot, owner=owner)
                reference.rent(itype, now, now + boot, owner=owner)
            else:
                dur = 100.0 + 2000.0 * rng.random()
                va = indexed.rent(itype, now, now + boot + dur, owner=owner)
                vb = reference.rent(itype, now, now + boot + dur, owner=owner)
                va.busy_seconds += dur
                vb.busy_seconds += dur
                indexed.note_use(va)
                reference.note_use(vb)
        elif roll < 0.80:
            live = indexed.alive()
            vm = live[rng.randrange(len(live))]
            twin = reference.vms[vm.id]
            dur = 100.0 + 2000.0 * rng.random()
            start = max(now, vm.free_at)
            for v in (vm, twin):
                v.free_at = start + dur
                v.busy_seconds += dur
            indexed.note_use(vm)
            reference.note_use(twin)
        else:
            live = indexed.alive()
            vm = live[rng.randrange(len(live))]
            indexed.mark_crashed(vm, now)
            reference.mark_crashed(reference.vms[vm.id], now)
        got = [vm.id for vm in indexed.reap(now)]
        want = [vm.id for vm in reference.reap(now)]
        assert got == want
        assert [vm.id for vm in indexed.alive()] == [
            vm.id for vm in reference.alive()
        ]
        assert indexed.counters() == reference.counters()
        live = reference.alive()
        if step >= rank_from:
            best = indexed.max_busy_alive()
            want_best = max(live, key=lambda v: (v.busy_seconds, -v.id), default=None)
            assert (best.id if best else None) == (
                want_best.id if want_best else None
            )
        if step >= idle_from:
            idle = indexed.best_idle(now)
            want_idle = max(
                (v for v in live if v.free_at <= now + 1e-9),
                key=lambda v: (v.busy_seconds, -v.id),
                default=None,
            )
            assert (idle.id if idle else None) == (
                want_idle.id if want_idle else None
            )
    # both fleets bill alike, and the single-pass utilization equals
    # the roster scan, floats bit-equal (same accumulation order)
    roll_idx = indexed.finalize(billing)
    assert roll_idx == reference.finalize(billing)
    assert roll_idx.utilization == reference.utilization(billing)


def test_unnoted_rental_reaps_and_ranks(platform):
    """A VM rented and never used is indexed lazily, yet reaps at its
    horizon and ranks exactly as the scan oracle says — with only reap
    calls in between."""
    itype = platform.itype("small")
    btu = platform.billing.btu_seconds
    fleets = (FleetManager(), ScanFleetManager())
    for fleet in fleets:
        fleet.rent(itype, 0.0, 60.0, owner="idle")  # never noted
        used = fleet.rent(itype, 0.0, 60.0, owner="busy")
        used.free_at += 5000.0
        used.busy_seconds += 5000.0
        fleet.note_use(used)
    for now in (100.0, btu - 1.0, btu + 1.0, 2 * btu + 1.0):
        assert [v.id for v in fleets[0].reap(now)] == [
            v.id for v in fleets[1].reap(now)
        ]
        assert [v.id for v in fleets[0].alive()] == [
            v.id for v in fleets[1].alive()
        ]
    assert [v.dead for v in fleets[0].vms] == [True, True]
    fresh = FleetManager()
    idle = fresh.rent(itype, 0.0, 60.0)
    assert fresh.max_busy_alive() is idle
    assert fresh.best_idle(30.0) is None
    assert fresh.best_idle(60.0) is idle


def _same_reaps(fleets, times) -> None:
    """Reap both fleets at each of *times*: same reaped ids, same
    survivors."""
    for now in times:
        got, want = ([v.id for v in f.reap(now)] for f in fleets)
        assert got == want, now
        assert [v.id for v in fleets[0].alive()] == [v.id for v in fleets[1].alive()]


def test_band_vm_reaps_once_idle(platform):
    """``free_at`` 1.8e-6 s past a BTU boundary lies inside the 1e-9
    band of the BTU rounding: the horizon (the boundary) is below
    ``free_at``.  The entry keyed at the horizon pops while the VM is
    still busy and goes back unchanged, so the VM reaps at the first
    reap with ``free_at <= now`` — as the scan says, also at ``now ==
    free_at`` (the finish of its last task)."""
    itype = platform.itype("small")
    btu = platform.btu_seconds
    free = btu * (1 + 5e-10)

    def band_fleets():
        fleets = (FleetManager(), ScanFleetManager())
        for fleet in fleets:
            vm = fleet.rent(itype, 0.0, 60.0)
            vm.free_at = free
            vm.busy_seconds = free - 60.0
            fleet.note_use(vm)
            assert vm.horizon(btu) == btu < free
        return fleets

    for times in ([btu - 1.0, btu + 1e-6, free], [free], [btu + 1e-6, free + 1.0]):
        fleets = band_fleets()
        _same_reaps(fleets, times[:-1])
        assert fleets[0]._expiry == [(btu, 0, 1)]  # still queued, as keyed
        _same_reaps(fleets, times[-1:])
        assert [v.dead for v in fleets[0].vms] == [True]


def test_unnoted_rental_keyed_at_its_horizon(platform):
    """A rental never noted (stamp 0) is indexed by _index_fresh at its
    first-BTU horizon and reaps just past it."""
    itype = platform.itype("small")
    btu = platform.btu_seconds
    fleets = (FleetManager(), ScanFleetManager())
    for fleet in fleets:
        fleet.rent(itype, 10.0, 70.0, owner="idle")
    _same_reaps(fleets, [100.0, btu + 10.0, btu + 10.5, btu + 20.0])
    assert fleets[0].reaped_count == 1


def test_reuse_after_keying_moves_the_expiry(platform):
    """A VM reused after its entry was keyed gets a new entry at the
    later horizon; the old one is stale and never reaps it early."""
    itype = platform.itype("small")
    btu = platform.btu_seconds
    fleets = (FleetManager(), ScanFleetManager())
    for fleet in fleets:
        vm = fleet.rent(itype, 0.0, 500.0)
        vm.busy_seconds = 500.0
        fleet.note_use(vm)  # keyed at btu
        other = fleet.rent(itype, 0.0, 50.0)
        fleet.note_use(other)
    _same_reaps(fleets, [1000.0])
    for fleet in fleets:
        vm = fleet.vms[0]
        vm.free_at = btu + 900.0  # reused into its second BTU
        vm.busy_seconds += btu + 400.0
        fleet.note_use(vm)  # keyed at 2 * btu
    _same_reaps(fleets, [btu + 1.0, btu + 950.0, 2 * btu - 1.0, 2 * btu + 1.0])
    assert [v.dead for v in fleets[0].vms] == [True, True]


def test_fleet_reaps_at_the_platform_btu(platform):
    """A run builds its private fleet with the platform's BTU and
    refuses a shared fleet that reaps at another one."""
    minute = dataclasses.replace(platform, billing=BillingModel(btu_seconds=60.0))
    workflow = SHAPES["wide"](1)
    solo = OnlineCloudExecutor(workflow, minute, policy="AllParExceed")
    assert solo._fleet_mgr.btu == 60.0
    assert WorkflowService(minute).fleet.btu == 60.0
    with pytest.raises(SimulationError, match="fleet reaps at a 3600.0 s BTU"):
        OnlineCloudExecutor(workflow, minute, fleet=FleetManager())
    with pytest.raises(SimulationError, match="platform bills 60.0 s"):
        WorkflowService(minute, fleet=ScanFleetManager())
    with pytest.raises(SimulationError, match="positive and finite"):
        FleetManager(btu=float("nan"))


# ----------------------------------------------------------------------
# per-policy index upkeep and the shared-executor trace log
# ----------------------------------------------------------------------
def _captured_service(platform, monkeypatch, policy):
    """Run a small fair-share service, returning (service, executors)."""
    executors = []

    def factory(*args, **kwargs):
        executor = OnlineCloudExecutor(*args, **kwargs)
        executors.append(executor)
        return executor

    monkeypatch.setattr(service_loop, "OnlineCloudExecutor", factory)
    cell = ServiceCell(
        platform=platform, policy=policy, admission="fair", count=14,
        tenants=4, mean_interarrival=180.0, seed=2013, max_concurrent=4,
    )
    service = WorkflowService(
        platform, policy=policy, admission="fair", max_concurrent=4
    )
    result = service.run(build_requests(cell))
    assert result.completed == 14
    return service, executors


@pytest.mark.parametrize("policy", ["StartParExceed", "StartParNotExceed"])
def test_startpar_service_never_fills_idle_pool(platform, monkeypatch, policy):
    """StartPar* never asks for an idle VM, so the AllPar* free-pool and
    idle heap stay empty for the whole run."""
    service, _ = _captured_service(platform, monkeypatch, policy)
    fleet = service.fleet
    assert len(fleet.vms) > 0
    assert not fleet._free_pool
    assert not fleet._idle_rank


def test_allpar_service_never_fills_rank_heap(platform, monkeypatch):
    """Conversely AllPar* never asks for the busiest live VM."""
    service, _ = _captured_service(platform, monkeypatch, "AllParNotExceed")
    assert not service.fleet._rank
    assert service.fleet._idle_rank


@pytest.mark.parametrize("policy", POLICIES)
def test_service_executors_keep_no_trace_log(platform, monkeypatch, policy):
    """Executors on the service's shared simulator append nothing to
    ``events``; a solo run_online still logs every VM and task event."""
    _, executors = _captured_service(platform, monkeypatch, policy)
    assert executors
    assert all(ex.events == [] for ex in executors)
    workflow = SHAPES["wide"](1)
    solo = run_online(workflow, platform, policy=policy)
    kinds = [ev.kind for ev in solo.events]
    assert kinds.count("task_start") == kinds.count("task_end") == len(workflow)
    assert kinds.count("vm_start") == solo.vm_count
    assert solo.events == sorted(solo.events, key=lambda e: e.time)


# ----------------------------------------------------------------------
# scale smoke (excluded from tier 1 via the `slow` marker)
# ----------------------------------------------------------------------
@pytest.mark.slow
def test_service_10k_smoke(platform):
    """The 10k-workflow / 500-tenant run the indexed kernels target:
    must complete (admitted == completed) without event-budget blowups."""
    cell = ServiceCell(
        platform=platform,
        policy="StartParNotExceed",
        admission="fair",
        count=10_000,
        tenants=500,
        mean_interarrival=180.0,
        seed=2013,
        max_concurrent=32,
    )
    result = run_service(
        build_requests(cell),
        platform,
        policy=cell.policy,
        admission=cell.admission,
        max_concurrent=cell.max_concurrent,
    )
    assert result.submitted == 10_000
    assert result.completed == result.admitted == 10_000
    assert result.vm_count > 0
