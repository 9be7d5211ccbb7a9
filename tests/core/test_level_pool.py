"""The fused AllPar* kernel's first-fit level pool against the builder's
running-max scan.

``repro.kernels.provision`` scans each level's candidate pool as one
sorted array (``_LevelPool.first_fit``) where the builder path's
``AllPar*.select_vm`` takes ``ScheduleBuilder.busiest_vm`` over the
VMs free of the level.  The DAGs in ``test_kernel_equivalence.py`` are
small, so their walks are short.  Here levels are wider and the
runtimes are the paper's seeded Pareto draws: most of the pool is
rejected for most tasks, which
exercises the ordering, the claimed-VM mask and the exact path for
predecessor-hosting candidates over walks dozens of candidates long.
The contract is the same: byte-identical schedules and
``MetricsRegistry`` counters.
"""

from __future__ import annotations

from collections import defaultdict

import pytest
from hypothesis import given, settings, strategies as st

from repro.cloud.platform import CloudPlatform
from repro.core.allocation import LevelScheduler
from repro.experiments.scenarios import scenario
from repro.obs.metrics import MetricsRegistry
from repro.workloads.base import apply_model
from repro.workloads.pareto import ParetoModel
from repro.workflows.dag import Workflow
from repro.workflows.generators import mapreduce, montage, random_layered
from repro.workflows.task import Task
from tests.oracles.builder_path import BuilderLevel

WARM = CloudPlatform.ec2()
COLD = CloudPlatform.ec2(boot_seconds=97.0, prebooted=False)
POLICIES = ("AllParExceed", "AllParNotExceed")

SHAPES = {
    # a 60-wide level next to three singleton levels
    "montage": lambda: montage(20),
    # wide levels with sparse random edges: candidates hosting a
    # predecessor sit anywhere in the pool
    "layered": lambda: random_layered(
        layers=5, width_range=(20, 45), edge_density=0.15, seed=11
    ),
    # every reducer depends on every mapper: the whole pool hosts a
    # predecessor, so every candidate takes the exact path
    "mapreduce": lambda: mapreduce(mappers=30, reducers=6),
}


def _trace(schedule):
    return (
        tuple(
            (vm.id, tuple((p.task_id, p.start, p.end) for p in vm.placements))
            for vm in schedule.vms
        ),
        schedule.makespan,
        schedule.total_cost,
    )


def _run(wf, platform, policy, scheduler):
    reg = MetricsRegistry()
    with reg.activate():
        sched = scheduler(policy).schedule(wf, platform)
    return _trace(sched), reg.as_dict()


def _assert_identical(wf, platform, policy):
    fused = _run(wf, platform, policy, LevelScheduler)
    builder = _run(wf, platform, policy, BuilderLevel)
    assert fused[0] == builder[0]
    assert fused[1] == builder[1]
    return builder[1]["counters"]


@pytest.mark.parametrize("platform", [WARM, COLD], ids=["warm", "cold"])
@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("seed", [0, 2013])
def test_pareto_runs_identical_to_indexed(shape, seed, policy, platform):
    wf = apply_model(SHAPES[shape](), ParetoModel(), seed=seed)
    _assert_identical(wf, platform, policy)


@pytest.mark.parametrize("policy", POLICIES)
def test_expired_predecessor_host_is_rejected(policy):
    """A candidate hosting a predecessor is judged on its exact
    data-ready.  ``long`` claims its own VM for level 1 through ``a``;
    ``b`` then finds only ``short``'s VM, whose single BTU ends before
    ``long``'s output arrives, and must rent."""
    wf = Workflow("expired-host")
    works = {"long": 4000.0, "short": 100.0, "a": 2000.0, "b": 1000.0}
    for tid, work in works.items():
        wf.add_task(Task(tid, work, "w"))
    for src, dst in (("long", "a"), ("long", "b"), ("short", "b")):
        wf.add_dependency(src, dst, 0.1)
    counters = _assert_identical(wf.validate(), WARM, policy)
    assert counters["provision.rent"] == 3


def _live_candidates(wf, sched):
    """Per parallel task, in the kernels' placement order (longest
    first, then by id), the number of pool candidates still live when
    it is placed: the VMs that hosted an earlier level, less those that
    tasks of its own level placed before it took.  Read off the plan."""
    levels = wf.level_of()
    first = {
        vm.id: min(levels[p.task_id] for p in vm.placements) for vm in sched.vms
    }
    by_level = defaultdict(list)
    for tid, lvl in levels.items():
        by_level[lvl].append(tid)
    seen = []
    for lvl, tasks in sorted(by_level.items()):
        if len(tasks) < 2:
            continue
        pool = {v for v, f in first.items() if f < lvl}
        for tid in sorted(tasks, key=lambda t: (-wf.task(t).work, t)):
            seen.append(len(pool))
            pool.discard(sched.vm_of(tid).id)
    return seen


@pytest.mark.parametrize("policy", POLICIES)
def test_pareto_walks_are_long(policy):
    """The grid above reaches deep into the pool: on average each task
    is shown several live candidates before one fits or it rents."""
    wf = apply_model(montage(20), ParetoModel(), seed=0)
    _assert_identical(wf, WARM, policy)
    sched = LevelScheduler(policy).schedule(wf, WARM)
    assert sum(_live_candidates(wf, sched)) > 5 * len(wf)


@pytest.mark.slow
@pytest.mark.parametrize("policy", POLICIES)
def test_5k_pareto_montage_identical_to_indexed(policy):
    """The ``static-pareto-5k`` benchmark input at full size: 5,106
    tasks, levels of 1,700 tasks over pools of ~1,700 candidates."""
    wf = scenario("pareto", WARM).apply(montage(1700), 2013)
    _assert_identical(wf, WARM, policy)


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 100_000),
    model_seed=st.integers(0, 1_000),
    exceed=st.booleans(),
)
def test_random_layered_identical_to_indexed(seed, model_seed, exceed):
    wf = apply_model(
        random_layered(layers=4, width_range=(5, 30), edge_density=0.3, seed=seed),
        ParetoModel(),
        seed=model_seed,
    )
    policy = "AllParExceed" if exceed else "AllParNotExceed"
    _assert_identical(wf, WARM, policy)
