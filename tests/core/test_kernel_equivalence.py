"""Property tests: the fused kernels and the builder path are
byte-identical to the straightforward reference implementations.

The scaling work (DESIGN.md §9, §12) rewrote the provisioning policies,
the ranking pass and the DAG sweeps.  The contract is *trace
identity*, not statistical equivalence: on any DAG, the optimized
kernel must reproduce the reference schedule exactly —
same VMs (flavor, region, rent window), same task order and timing on
each VM, same makespan and cost.  These tests drive both kernels over
seeded random DAGs of the shapes that stress different code paths
(wide levels, pure chains, diamonds, mapreduce fan-in) and compare the
full trace.
"""

from __future__ import annotations

import dataclasses
import math

import pytest

from repro.cloud.billing import BillingModel
from repro.cloud.instance import SMALL, InstanceType
from repro.cloud.network import NetworkModel
from repro.cloud.platform import CloudPlatform
from repro.core.allocation import HeftScheduler, LevelScheduler
from repro.core.allocation.ranking import upward_rank
from repro.core.provisioning import PROVISIONING_POLICIES
from repro.errors import PlatformError
from repro.workflows.dag import Workflow
from repro.workflows.generators import fork_join, mapreduce, montage, random_layered
from repro.workflows.task import Task
from tests.oracles.builder_path import BuilderHeft, BuilderLevel
from tests.oracles.dag_passes import critical_path_reference, level_of_reference
from tests.oracles.provisioning_scan import REFERENCE_POLICIES
from tests.oracles.upward_rank import upward_rank_reference


# ----------------------------------------------------------------------
# DAG zoo: seeded shapes that stress different kernel paths
# ----------------------------------------------------------------------
def _chain(n: int, seed: int) -> Workflow:
    """Pure chain: every level has size 1 (sequential policy branch)."""
    wf = Workflow(f"chain{n}-s{seed}")
    prev = None
    for i in range(n):
        t = wf.add_task(Task(f"t{i}", 300.0 + 700.0 * ((seed * 31 + i) % 7), "w"))
        if prev is not None:
            wf.add_dependency(prev.id, t.id, 0.02 * ((seed + i) % 3))
        prev = t
    return wf.validate()


def _wide(seed: int) -> Workflow:
    """Few layers, wide levels: stresses the level-pool index."""
    return random_layered(
        layers=4, width_range=(6, 14), edge_density=0.4, seed=seed,
        name=f"wide-s{seed}",
    )


def _diamond(seed: int) -> Workflow:
    """Repeated fork-join diamonds: alternating level sizes 1 and w."""
    return fork_join(width=3 + seed % 5, stages=2 + seed % 3,
                     name=f"diamond-s{seed}")


def _mapreduce(seed: int) -> Workflow:
    return mapreduce(mappers=5 + 3 * (seed % 4), reducers=1 + seed % 3,
                     name=f"mr-s{seed}")


def _deep_random(seed: int) -> Workflow:
    """Deep random layering: mixes singleton and parallel levels."""
    return random_layered(
        layers=9, width_range=(1, 5), edge_density=0.6, seed=seed,
        name=f"deep-s{seed}",
    )


SHAPES = {
    "chain": lambda seed: _chain(12 + seed % 9, seed),
    "wide": _wide,
    "diamond": _diamond,
    "mapreduce": _mapreduce,
    "deep": _deep_random,
}
SEEDS = [1, 7, 2013]


def _dag_cases():
    return [
        pytest.param(shape, seed, id=f"{shape}-s{seed}")
        for shape in SHAPES
        for seed in SEEDS
    ]


# ----------------------------------------------------------------------
# trace fingerprint
# ----------------------------------------------------------------------
def _fingerprint(schedule):
    """The full observable trace of a schedule, labels excluded (the
    reference policies carry ``*Reference`` names by design)."""
    vms = tuple(
        (
            vm.id,
            vm.itype.name,
            vm.region.name,
            vm.boot_seconds,
            tuple((p.task_id, p.start, p.end) for p in vm.placements),
        )
        for vm in schedule.vms
    )
    return vms, schedule.makespan, schedule.total_cost


def _scheduler_for(policy_name: str):
    """The paper's pairing: AllPar* needs level knowledge, the rest HEFT."""
    if policy_name.startswith("AllPar"):
        return LevelScheduler
    return HeftScheduler


def _builder_for(policy_name: str):
    """:func:`_scheduler_for`'s pairing on the indexed builder path."""
    if policy_name.startswith("AllPar"):
        return BuilderLevel
    return BuilderHeft


@pytest.fixture(scope="module")
def platform():
    return CloudPlatform.ec2()


#: VMs boot before their first task runs: an empty VM's start moves
COLD = CloudPlatform.ec2(boot_seconds=97.0, prebooted=False)


# ----------------------------------------------------------------------
# provisioning kernels
# ----------------------------------------------------------------------
def _pairings():
    """``(policy, scheduler, platform)`` cases.  Each policy first runs
    under its paper pairing (:func:`_scheduler_for`, fused kernels, warm
    platform; the id is the policy name alone).  Then it runs on the
    builder path under both schedulers, warm and cold: HEFT order
    interleaves levels under AllPar*, level order batches StartPar*."""
    names = sorted(REFERENCE_POLICIES)
    cases = [pytest.param(name, None, "warm", id=name) for name in names]
    cases += [
        pytest.param(name, cls, plat, id=f"{name}-{cls.__name__}-{plat}")
        for name in names
        for cls in (BuilderHeft, BuilderLevel)
        for plat in ("warm", "cold")
    ]
    return cases


@pytest.mark.parametrize("shape,seed", _dag_cases())
@pytest.mark.parametrize("policy_name,scheduler_cls,plat", _pairings())
def test_policy_trace_identical_to_reference(
    policy_name, scheduler_cls, plat, shape, seed, platform
):
    wf = SHAPES[shape](seed)
    scheduler_cls = scheduler_cls or _scheduler_for(policy_name)
    platform = COLD if plat == "cold" else platform
    optimized = scheduler_cls(PROVISIONING_POLICIES[policy_name]()).schedule(
        wf, platform
    )
    reference = scheduler_cls(REFERENCE_POLICIES[policy_name]()).schedule(
        wf, platform
    )
    assert _fingerprint(optimized) == _fingerprint(reference)


# ----------------------------------------------------------------------
# ranking and DAG sweeps
# ----------------------------------------------------------------------
@pytest.mark.parametrize("shape,seed", _dag_cases())
def test_upward_rank_identical_to_reference(shape, seed, platform):
    wf = SHAPES[shape](seed)
    fast = upward_rank(wf, platform, SMALL)
    slow = upward_rank_reference(wf, platform, SMALL)
    assert set(fast) == set(slow)
    for tid in fast:
        # byte-identical floats, not approx: both kernels must combine
        # the same operands in the same order
        assert fast[tid] == slow[tid], tid


@pytest.mark.parametrize("shape,seed", _dag_cases())
def test_rank_reads_the_model_fields(shape, seed, platform):
    """The one rank sweep honours every field a rank reads: a network
    and a flavor varied by their fields rank as the oracle does, and an
    equal but distinct model ranks as the stock one."""
    wf = SHAPES[shape](seed)
    fresh = dataclasses.replace(platform, network=NetworkModel())
    assert upward_rank(wf, fresh, SMALL) == upward_rank(wf, platform, SMALL)
    varied = dataclasses.replace(
        platform,
        network=NetworkModel(intra_region_latency_s=2.5, inter_region_latency_s=9.0),
    )
    odd = dataclasses.replace(SMALL, speedup=1.3, link_gbps=0.25)
    assert upward_rank(wf, varied, odd) == upward_rank_reference(wf, varied, odd)


@pytest.mark.parametrize("model", [InstanceType, BillingModel, NetworkModel])
def test_platform_models_refuse_subclasses(model):
    """The models are data: a subclass could override a formula the
    kernels inline, so defining one fails at class creation."""
    with pytest.raises(PlatformError, match="cannot be subclassed"):
        type("Custom", (model,), {})


def test_rank_memo_drops_on_mutation(platform):
    """Ranks are memoized on the workflow; adding a task after ranking
    must not return the stale vector."""
    from repro.kernels.columnar import upward_rank_values

    wf = _chain(6, 3)
    before = upward_rank_values(wf, platform, SMALL)
    assert upward_rank_values(wf, platform, SMALL) is before  # memoized
    wf.add_task(Task("tail", 900.0, "w"))
    wf.add_dependency("t5", "tail", 0.5)
    after = upward_rank_values(wf, platform, SMALL)
    assert after is not before and len(after) == len(before) + 1
    slow = upward_rank_reference(wf, platform, SMALL)
    assert upward_rank(wf, platform, SMALL) == slow
    assert after[0] > before[0]  # the new tail lengthens every path


def test_rank_memo_is_keyed_on_network_latency(platform):
    """Two platforms that differ only in latency rank the same workflow
    and flavor differently; each agrees with the oracle."""
    from repro.kernels.columnar import upward_rank_values

    wf = _diamond(2)
    slow_net = dataclasses.replace(
        platform, network=NetworkModel(intra_region_latency_s=5.0)
    )
    fast = upward_rank_values(wf, platform, SMALL)
    slow = upward_rank_values(wf, slow_net, SMALL)
    assert (fast != slow).any()
    for plat in (platform, slow_net):
        assert upward_rank(wf, plat, SMALL) == upward_rank_reference(wf, plat, SMALL)


@pytest.mark.parametrize("shape,seed", _dag_cases())
def test_memoized_ranks_agree_with_the_oracle_on_every_flavor(shape, seed, platform):
    """Ranking one workflow on every flavor, twice, interleaved: each
    flavor keeps its own memo entry, byte-identical to the oracle."""
    from repro.cloud.instance import INSTANCE_TYPES

    wf = SHAPES[shape](seed)
    for _ in range(2):
        for itype in INSTANCE_TYPES.values():
            assert upward_rank(wf, platform, itype) == upward_rank_reference(
                wf, platform, itype
            ), itype.name


@pytest.mark.parametrize("shape,seed", _dag_cases())
def test_level_of_identical_to_reference(shape, seed):
    wf = SHAPES[shape](seed)
    assert wf.level_of() == level_of_reference(wf)


@pytest.mark.parametrize("shape,seed", _dag_cases())
def test_critical_path_identical_to_reference(shape, seed):
    wf = SHAPES[shape](seed)
    assert wf.critical_path() == critical_path_reference(wf)
    halved = lambda tid: wf.task(tid).work / 2.0  # noqa: E731
    transfer = lambda u, v: 11.0  # noqa: E731
    assert wf.critical_path(
        exec_time=halved, transfer_time=transfer
    ) == critical_path_reference(wf, exec_time=halved, transfer_time=transfer)


@pytest.mark.parametrize("shape,seed", _dag_cases())
def test_schedules_are_internally_consistent(shape, seed, platform):
    """Sanity on top of trace identity: optimized schedules validate."""
    wf = SHAPES[shape](seed)
    s = HeftScheduler("StartParExceed").schedule(wf, platform)
    assert math.isfinite(s.makespan) and s.makespan > 0
    assert set(s.workflow.task_ids) == {
        p.task_id for vm in s.vms for p in vm.placements
    }


# ----------------------------------------------------------------------
# columnar fused kernels (DESIGN.md §12)
# ----------------------------------------------------------------------
def _assert_columnar_trace_identical(policy_name, shape, seed, platform):
    policy = PROVISIONING_POLICIES[policy_name]
    columnar = _scheduler_for(policy_name)(policy()).schedule(
        SHAPES[shape](seed), platform
    )
    indexed = _builder_for(policy_name)(policy()).schedule(SHAPES[shape](seed), platform)
    assert _fingerprint(columnar) == _fingerprint(indexed)


@pytest.mark.parametrize("shape,seed", _dag_cases())
@pytest.mark.parametrize("policy_name", sorted(PROVISIONING_POLICIES))
def test_columnar_trace_identical_to_indexed(policy_name, shape, seed, platform):
    """The fused kernels reproduce the indexed kernels bit-exactly —
    same VM ids, rent windows and task timings — on every zoo DAG."""
    _assert_columnar_trace_identical(policy_name, shape, seed, platform)


@pytest.mark.parametrize("shape,seed", _dag_cases())
@pytest.mark.parametrize("policy_name", sorted(PROVISIONING_POLICIES))
def test_columnar_trace_identical_to_indexed_cold(policy_name, shape, seed):
    """The same on a cold platform: every rented VM boots for 97 s
    before its first task, so each kernel's start on a fresh VM differs
    from its start on a rented one."""
    _assert_columnar_trace_identical(policy_name, shape, seed, COLD)


@pytest.mark.parametrize("shape,seed", _dag_cases())
def test_columnar_analysis_identical_to_reference(shape, seed, platform):
    """Columnar rank/level/critical-path sweeps equal the references."""
    wf = SHAPES[shape](seed)
    ranks = upward_rank(wf, platform, SMALL)
    levels = wf.level_of()
    cpath = wf.critical_path()
    assert ranks == upward_rank_reference(wf, platform, SMALL)
    assert levels == level_of_reference(SHAPES[shape](seed))
    assert cpath == critical_path_reference(SHAPES[shape](seed))


def _assert_columnar_metrics_identical(policy_name, shape, seed, platform):
    from repro.obs.metrics import MetricsRegistry

    policy = PROVISIONING_POLICIES[policy_name]
    reg_c, reg_i = MetricsRegistry(), MetricsRegistry()
    with reg_c.activate():
        _scheduler_for(policy_name)(policy()).schedule(SHAPES[shape](seed), platform)
    with reg_i.activate():
        _builder_for(policy_name)(policy()).schedule(SHAPES[shape](seed), platform)
    assert reg_c.as_dict() == reg_i.as_dict()


@pytest.mark.parametrize("shape,seed", _dag_cases())
@pytest.mark.parametrize("policy_name", sorted(PROVISIONING_POLICIES))
def test_columnar_metrics_identical_to_indexed(policy_name, shape, seed, platform):
    """Counter byte-identity: the fused pass records the builder's
    counters (VMs rented, tasks placed, each ``provision.*`` decision),
    not just its schedule."""
    _assert_columnar_metrics_identical(policy_name, shape, seed, platform)


@pytest.mark.parametrize("shape,seed", _dag_cases())
@pytest.mark.parametrize("policy_name", sorted(PROVISIONING_POLICIES))
def test_columnar_metrics_identical_to_indexed_cold(policy_name, shape, seed):
    """The same on the cold platform, where a rental's start includes
    the boot and so do the reuse and fit tests against its horizon."""
    _assert_columnar_metrics_identical(policy_name, shape, seed, COLD)


def _one_vm_cases():
    wide = montage(60)  # mConcatFit waits on every mDiffFit
    cases = [pytest.param(wide, id="montage60")]
    cases += [
        pytest.param(SHAPES[shape](seed), id=f"{shape}-s{seed}")
        for shape in ("mapreduce", "deep")
        for seed in SEEDS
    ]
    return cases


@pytest.mark.parametrize("wf", _one_vm_cases())
@pytest.mark.parametrize("plat", ["warm", "cold"])
@pytest.mark.parametrize("flavor", ["small", "large"])
def test_one_vm_per_task_recurrence_matches_the_builder(wf, plat, flavor, platform):
    """The OneVMperTask kernel computes each start from its recurrence
    alone (data-ready over every remote edge, plus the boot when cold);
    the builder places each task on a fresh VM through its queries.
    Plans and counters agree, on a warm and a cold platform, on a fan-in
    of 60 edges and on the zoo's mapreduce and deep shapes."""
    from repro.obs.metrics import MetricsRegistry

    platform = COLD if plat == "cold" else platform
    itype = platform.itype(flavor)
    if wf.name.startswith("montage"):
        assert len(wf.pred_map()["mConcatFit"]) >= 60
    fused_reg, built_reg = MetricsRegistry(), MetricsRegistry()
    with fused_reg.activate():
        fused = HeftScheduler("OneVMperTask").schedule(wf, platform, itype=itype)
    with built_reg.activate():
        built = BuilderHeft("OneVMperTask").schedule(wf, platform, itype=itype)
    assert fused == built
    assert _fingerprint(fused) == _fingerprint(built)
    assert fused_reg.as_dict() == built_reg.as_dict()
    assert fused.vm_count == len(wf)


#: SHA-256 of ``run_sweep(seed=2013)``'s merged ``MetricsRegistry``,
#: recorded when every paper workflow still took the builder path, and
#: re-pinned when the builder stopped counting data-ready memo hits and
#: misses: the earlier payload with only those two keys removed
RUN_SWEEP_COUNTERS_2013 = (
    "9733c40d1e2f1df2ef52a8c6e189c61b678d4207d7fb66b11c5846b81f7d5334"
)


def test_run_sweep_metrics_identical_columnar_vs_indexed():
    """End-to-end byte-identity on the paper's default grid: the fused
    kernels leave every merged counter as the builder path left it
    (grid cells merge in deterministic grid order)."""
    import hashlib
    import json

    from repro.experiments.runner import run_sweep
    from repro.obs.metrics import MetricsRegistry

    reg = MetricsRegistry()
    run_sweep(seed=2013, metrics=reg)
    text = json.dumps(reg.as_dict(), separators=(",", ":"))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == RUN_SWEEP_COUNTERS_2013


@pytest.mark.parametrize("shape,seed", _dag_cases())
def test_replay_verify_matches_des(shape, seed, platform):
    """The certificate accepts the plan, and the DES observes the plan's
    own start and finish columns bit for bit."""
    from repro.kernels.replay import replay_verify

    s = HeftScheduler("StartParNotExceed").schedule(SHAPES[shape](seed), platform)
    assert replay_verify(s)
    _assert_des_observes_plan(s)


def _assert_des_observes_plan(schedule):
    """A no-fault DES run of *schedule* starts and finishes every task
    exactly when the plan says (exact ``==``, no tolerance)."""
    from repro.simulator.executor import simulate_schedule

    observed = simulate_schedule(schedule, check=True)
    ids = schedule.workflow.task_ids
    assert [observed.task_start[t] for t in ids] == schedule._start
    assert [observed.task_finish[t] for t in ids] == schedule._end


def _shifted(schedule, by: float = 123.0):
    """*schedule* rebuilt through the public constructor with its first
    non-entry task's planned window moved *by* seconds later."""
    from repro.cloud.vm import VM, Placement
    from repro.core.schedule import Schedule

    wf = schedule.workflow
    victim = next(
        p.task_id
        for vm in schedule.vms
        for p in vm.placements
        if wf.predecessors(p.task_id)
    )
    vms = [
        VM(
            id=vm.id,
            itype=vm.itype,
            region=vm.region,
            boot_seconds=vm.boot_seconds,
            placements=[
                Placement(p.task_id, p.start + by, p.end + by)
                if p.task_id == victim
                else p
                for p in vm.placements
            ],
        )
        for vm in schedule.vms
    ]
    return Schedule(wf, schedule.platform, vms)


def _two_region(schedule):
    """*schedule* rebuilt with every odd VM moved to a second region."""
    from repro.cloud.vm import VM
    from repro.core.schedule import Schedule

    home = schedule.vms[0].region
    away = next(r for r in schedule.platform.regions.values() if r.name != home.name)
    vms = [
        VM(
            id=vm.id,
            itype=vm.itype,
            region=away if k % 2 else vm.region,
            boot_seconds=vm.boot_seconds,
            placements=list(vm.placements),
        )
        for k, vm in enumerate(schedule.vms)
    ]
    return Schedule(schedule.workflow, schedule.platform, vms)


def test_replay_verify_catches_divergence(platform):
    """A plan whose timings cannot be realized is refused by the
    certificate and rejected by the DES it defers to, not silently
    passed."""
    from repro.errors import SimulationError
    from repro.experiments.runner import verify_schedule
    from repro.kernels.replay import replay_verify

    s = HeftScheduler("StartParExceed").schedule(_wide(7), platform)
    # push one non-entry task's planned window later than its
    # dependencies allow: the executed start diverges from the plan
    tampered = _shifted(s)
    assert not replay_verify(tampered)
    with pytest.raises(SimulationError, match="simulated start"):
        verify_schedule(tampered)


def _mixed_strategies():
    from repro.core.allocation.allpar1lns import AllPar1LnSDynScheduler
    from repro.core.allocation.cpa_eager import CpaEagerScheduler
    from repro.core.allocation.gain import GainScheduler

    return {
        "CPA-Eager": CpaEagerScheduler,
        "GAIN": GainScheduler,
        "AllPar1LnSDyn": AllPar1LnSDynScheduler,
    }


def _montage(seed: int, platform) -> Workflow:
    """The paper's 24-task Montage on seeded Pareto runtimes."""
    from repro.experiments.scenarios import scenario
    from repro.workflows.generators import montage

    return scenario("pareto", platform).apply(montage(), seed)


MIXED_SHAPES = ("chain", "wide", "diamond", "montage", "mapreduce")


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("shape", MIXED_SHAPES)
@pytest.mark.parametrize("strategy", sorted(_mixed_strategies()))
def test_mixed_flavor_replay_matches_des(strategy, shape, seed, platform):
    """The dynamic strategies rent mixed fleets; the certificate must
    accept exactly the plans whose start and finish times the DES
    observes bit for bit, and a tampered plan must be rejected through
    ``verify_schedule`` with the DES's own message."""
    from repro.errors import SimulationError
    from repro.experiments.runner import verify_schedule
    from repro.kernels.replay import replay_verify
    from repro.simulator.executor import simulate_schedule

    wf = _montage(seed, platform) if shape == "montage" else SHAPES[shape](seed)
    sched = _mixed_strategies()[strategy]().schedule(wf, platform)
    assert replay_verify(sched)
    _assert_des_observes_plan(sched)

    tampered = _shifted(sched)
    assert not replay_verify(tampered)
    with pytest.raises(SimulationError) as verified:
        verify_schedule(tampered)
    with pytest.raises(SimulationError) as simulated:
        simulate_schedule(tampered, check=True)
    assert str(verified.value) == str(simulated.value)


def test_mixed_flavor_cases_are_mixed(platform):
    """Most of the cases above really rent more than one flavor."""
    mixed = cases = 0
    for make in _mixed_strategies().values():
        for shape in MIXED_SHAPES:
            for seed in SEEDS:
                wf = _montage(seed, platform) if shape == "montage" else SHAPES[shape](seed)
                sched = make().schedule(wf, platform)
                mixed += len({it.name for it in sched._vm_itype}) > 1
                cases += 1
    assert mixed > cases // 2, (mixed, cases)


def test_replay_verify_defers_ineligible_cases(platform):
    """Anything outside the recurrence's model returns False (real DES
    takes over) instead of guessing; workflow size is not one of them."""
    from repro.core.allocation.cpa_eager import CpaEagerScheduler
    from repro.errors import SimulationError
    from repro.experiments.runner import verify_schedule
    from repro.kernels.replay import replay_verify
    from repro.obs.metrics import MetricsRegistry

    s = HeftScheduler("StartParExceed").schedule(_wide(1), platform)
    with MetricsRegistry().activate():
        # an active registry expects the DES's sim.* counters
        assert not replay_verify(s)
    # a builder-path plan of a small DAG: still the replay
    small = BuilderHeft("StartParExceed").schedule(_wide(2), platform)
    assert len(small.workflow) < 100
    assert replay_verify(small)
    assert not replay_verify(_shifted(small))
    with pytest.raises(SimulationError):
        verify_schedule(_shifted(small))
    # CPA-Eager upgrades some tasks: a mixed-flavor fleet replays too,
    # each task at its own VM's flavor
    mixed = CpaEagerScheduler().schedule(_wide(1), platform)
    assert len({vm.itype.name for vm in mixed.vms}) > 1
    assert replay_verify(mixed)
    assert not replay_verify(_shifted(mixed))
    with pytest.raises(SimulationError):
        verify_schedule(_shifted(mixed))
    # a mixed fleet spread over two regions still needs the DES
    assert not replay_verify(_two_region(mixed))


#: work small enough that ``1000.0 + work == 1000.0`` in float64
TINY = 1e-300


def _hand_plan(platform, tasks, edges, queues, stretch=None):
    """A schedule through the public constructor: *tasks* ``{id: work}``,
    *edges* ``(parent, child)`` with no data, and *queues* one list of
    ``(task, start)`` per small VM, each end at ``start + runtime``
    plus the task's *stretch* seconds, if any."""
    from repro.cloud.vm import VM, Placement
    from repro.core.schedule import Schedule

    stretch = stretch or {}
    wf = Workflow("hand")
    for tid, work in tasks.items():
        wf.add_task(Task(tid, work, "w"))
    for parent, child in edges:
        wf.add_dependency(parent, child, 0.0)
    vms = [
        VM(
            id=v,
            itype=SMALL,
            region=platform.default_region,
            placements=[
                Placement(t, s, s + tasks[t] + stretch.get(t, 0.0))
                for t, s in queue
            ],
        )
        for v, queue in enumerate(queues)
    ]
    return Schedule(wf.validate(), platform, vms)


def test_replay_verify_refuses_a_queue_order_against_the_dag(platform):
    """A chain placed backwards on one VM deadlocks the execution.  With
    zero-length tasks its planned starts even satisfy the recurrence, so
    only the strict-increase check stands between it and acceptance."""
    from repro.errors import SimulationError
    from repro.experiments.runner import verify_schedule
    from repro.kernels.replay import replay_verify

    sched = _hand_plan(
        platform,
        {"x": 1000.0, "a": TINY, "b": TINY},
        [("x", "a"), ("a", "b")],
        [[("x", 0.0), ("b", 1000.0), ("a", 1000.0)]],
    )
    assert sched._end == [1000.0, 1000.0, 1000.0]
    assert not replay_verify(sched)
    with pytest.raises(SimulationError, match="never completed"):
        verify_schedule(sched)


@pytest.mark.parametrize("edge", ["queue", "dag"])
def test_replay_verify_defers_a_zero_length_task(edge, platform):
    """``start + runtime == start`` for a tiny task: its successor — on
    the same VM queue, or across a zero-latency DAG edge — starts when
    it starts, which breaks strictness on that edge alone.  The plan is
    sound; the certificate defers it and the DES accepts it."""
    from repro.experiments.runner import verify_schedule
    from repro.kernels.replay import replay_verify

    tasks = {"x": 1000.0, "a": TINY, "b": 500.0}
    if edge == "queue":  # b waits only on its VM, behind a
        sched = _hand_plan(
            platform, tasks, [("x", "a")],
            [[("x", 0.0), ("a", 1000.0), ("b", 1000.0)]],
        )
    else:  # b waits only on a's data, which arrives in zero time
        free = dataclasses.replace(
            platform, network=NetworkModel(intra_region_latency_s=0.0)
        )
        sched = _hand_plan(
            free, tasks, [("x", "a"), ("a", "b")],
            [[("x", 0.0), ("a", 1000.0)], [("b", 1000.0)]],
        )
    assert not replay_verify(sched)
    verify_schedule(sched)
    _assert_des_observes_plan(sched)


def test_replay_verify_refuses_a_stretched_exit_task(platform):
    """An exit task planned to run longer than its runtime: every start
    is consistent, only ``finish == start + runtime`` fails."""
    from repro.errors import SimulationError
    from repro.experiments.runner import verify_schedule
    from repro.kernels.replay import replay_verify

    def plan(stretch):
        return _hand_plan(
            platform, {"x": 1000.0, "y": 500.0}, [("x", "y")],
            [[("x", 0.0), ("y", 1000.0)]], stretch,
        )

    assert replay_verify(plan({}))
    stretched = plan({"y": 50.0})
    assert not replay_verify(stretched)
    with pytest.raises(SimulationError, match="simulated finish"):
        verify_schedule(stretched)
