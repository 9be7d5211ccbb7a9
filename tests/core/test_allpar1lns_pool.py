"""AllPar1LnS[Dyn]'s per-level candidate pool against the full VM scan.

The schedulers pick each bin's VM from one pool per level: the VMs
rented before the level, per flavor, busiest first, each with its ready
time and paid horizon frozen for the level.  The oracles in
``tests/oracles/provisioning_scan.py`` ask every builder VM of the
bin's flavor instead.  The draws are random layered DAGs with the
paper's Pareto runtimes and edges heavy enough that a VM hosting a
predecessor starts a bin much earlier than any other VM, so the exact
data-ready path and the generic one disagree.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from repro.cloud.instance import LARGE, MEDIUM, SMALL
from repro.cloud.platform import CloudPlatform
from repro.core.allocation.allpar1lns import (
    AllPar1LnSDynScheduler,
    AllPar1LnSScheduler,
)
from repro.core.schedule import _COLUMNS
from repro.workloads.base import apply_model
from repro.workloads.pareto import ParetoModel
from repro.workflows.dag import Workflow
from repro.workflows.task import Task
from tests.oracles.provisioning_scan import AllPar1LnSDynScan, AllPar1LnSScan

PLATFORM = CloudPlatform.ec2()
PAIRS = (
    (AllPar1LnSScheduler, AllPar1LnSScan),
    (AllPar1LnSDynScheduler, AllPar1LnSDynScan),
)
FLAVORS = (SMALL, MEDIUM, LARGE)
DRAWS = 40


def _draw(seed: int) -> Workflow:
    """A random layered DAG: 3-6 levels of 1-8 tasks, each task fed by
    a random non-empty subset of the level above over 1-150 GB edges,
    with Pareto runtimes."""
    rng = np.random.default_rng(seed)
    wf = Workflow(f"drawn{seed}")
    above: list = []
    for lvl in range(int(rng.integers(3, 7))):
        level = [f"L{lvl}_{i}" for i in range(int(rng.integers(1, 9)))]
        for tid in level:
            wf.add_task(Task(tid, 500.0, "w"))
            if above:
                k = int(rng.integers(1, len(above) + 1))
                for src in sorted(rng.choice(above, size=k, replace=False)):
                    wf.add_dependency(str(src), tid, float(rng.uniform(1.0, 150.0)))
        above = level
    return apply_model(wf.validate(), ParetoModel(), seed=seed)


def _first_difference(a, b):
    return next((c for c in _COLUMNS if getattr(a, c) != getattr(b, c)), None)


def test_pool_schedules_equal_the_scan():
    seen: Counter = Counter()
    for seed in range(DRAWS):
        wf = _draw(seed)
        for pooled, scan in PAIRS:
            for itype in FLAVORS:
                oracle = scan()
                want = oracle.schedule(wf, PLATFORM, itype=itype)
                got = pooled().schedule(wf, PLATFORM, itype=itype)
                where = (seed, pooled.name, itype.name)
                column = _first_difference(got, want)
                assert column is None, (where, column)
                assert got == want, where
                seen.update(oracle.seen)
                # per-bin flavors split the pool by flavor
                seen["mixed"] += len({vm.itype.name for vm in got.vms}) > 1
    # the draws reach every case the pool has to get right
    for case in ("rent", "pred", "pool", "claimed", "expired", "pred_host", "mixed"):
        assert seen[case] > 0, (case, seen)
