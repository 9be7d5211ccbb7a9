"""Differential oracle for the dynamic strategies.

CPA-Eager and Gain re-price only the task they just upgraded, and Gain
caches each task's best gain cell.  ``tests/oracles/dynamic_upgrade.py``
keeps the loops that rebuilt and re-priced the whole configuration on
every step; on any workflow, runtime scenario and budget the two must
choose the same flavor for every task, hence the same makespan and the
same cost, bit for bit.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.platform import CloudPlatform
from repro.core.allocation.cpa_eager import CpaEagerScheduler
from repro.core.allocation.gain import GainScheduler
from repro.experiments.scenarios import scenario
from repro.workflows.dag import Workflow
from repro.workflows.generators import (
    cstem,
    fork_join,
    mapreduce,
    montage,
    random_layered,
    sequential,
)
from repro.workflows.task import Task
from tests.oracles.dynamic_upgrade import cpa_eager_oracle, gain_oracle

PLATFORM = CloudPlatform.ec2()
BUDGETS = (1.0, 1.3, 2.0, 4.0)
PAIRS = (
    (CpaEagerScheduler, cpa_eager_oracle),
    (GainScheduler, gain_oracle),
)


def _fan(works, name: str) -> Workflow:
    """One entry task fanning out to one task per entry of *works*."""
    wf = Workflow(name)
    wf.add_task(Task("src", 600.0, "w"))
    for i, work in enumerate(works):
        wf.add_task(Task(f"t{i}", work, "w"))
        wf.add_dependency("src", f"t{i}", 0.1)
    return wf.validate()


SHAPES = {
    "montage": lambda seed: montage(),
    "cstem": lambda seed: cstem(),
    "mapreduce": lambda seed: mapreduce(),
    "sequential": lambda seed: sequential(),
    "fork_join": lambda seed: fork_join(width=2 + seed % 5, stages=1 + seed % 3),
    "layered": lambda seed: random_layered(
        layers=4, width_range=(1, 7), edge_density=0.5, seed=seed
    ),
    # equal runtimes everywhere: every choice is decided by a tie-break
    "ties": lambda seed: _fan([1800.0] * (3 + seed % 6), f"ties{seed}"),
}


def _flavors(sched):
    return {p.task_id: vm.itype.name for vm in sched.vms for p in vm.placements}


def _assert_same(sched, ref):
    assert _flavors(sched) == _flavors(ref)
    assert sched.makespan == ref.makespan
    assert sched.total_cost == ref.total_cost


@settings(max_examples=60, deadline=None)
@given(
    shape=st.sampled_from(sorted(SHAPES)),
    runtimes=st.sampled_from(["generator", "pareto", "best", "worst"]),
    budget=st.sampled_from(BUDGETS),
    seed=st.integers(0, 2**16),
)
def test_incremental_matches_whole_configuration_oracle(shape, runtimes, budget, seed):
    wf = SHAPES[shape](seed)
    if runtimes != "generator":
        wf = scenario(runtimes, PLATFORM).apply(wf, seed)
    for scheduler, oracle in PAIRS:
        _assert_same(
            scheduler(budget_factor=budget).schedule(wf, PLATFORM),
            oracle(wf, PLATFORM, budget),
        )


@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize("scheduler,oracle", PAIRS)
def test_infinite_gain_upgrade_matches_oracle(scheduler, oracle, budget):
    """5000 s on small pays two BTUs; on medium (1.6x, twice the price)
    it fits one, so the upgrade costs nothing: Gain's infinite-gain
    branch, affordable even at a 1x budget."""
    wf = _fan([5000.0, 5000.0, 1200.0, 300.0], "btu-drop")
    sched = scheduler(budget_factor=budget).schedule(wf, PLATFORM)
    _assert_same(sched, oracle(wf, PLATFORM, budget))
    if scheduler is GainScheduler:
        assert _flavors(sched)["t0"] != "small"
        assert _flavors(sched)["t1"] != "small"
