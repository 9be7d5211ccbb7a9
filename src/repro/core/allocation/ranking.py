"""Task-ordering primitives shared by the allocation strategies.

*Priority ranking* is HEFT's upward rank: ``rank(t) = w(t) + max over
successors (c(t, s) + rank(s))``.  Because a parent's rank strictly
exceeds each child's, scheduling in decreasing rank order is always a
valid topological order — a property the test suite checks.

*Level ranking* groups tasks by DAG depth; inside a level the paper's
AllPar strategies order by execution time, longest first.
"""

from __future__ import annotations

from typing import Dict, List

from repro.cloud.instance import InstanceType
from repro.cloud.platform import CloudPlatform
from repro.workflows.dag import Workflow


def upward_rank(
    workflow: Workflow,
    platform: CloudPlatform,
    itype: InstanceType,
    include_transfers: bool = True,
) -> Dict[str, float]:
    """HEFT upward rank of every task.

    Execution weights are the runtimes on *itype* (the run's uniform
    flavor; on a homogeneous platform the HEFT "mean across processors"
    reduces to exactly this). Edge weights are the store-and-forward
    transfer times between two VMs of that flavor in the default region;
    pass ``include_transfers=False`` for the pure-CPU variant.
    """
    if not workflow.validated:
        workflow.validate()
    from repro.kernels.dispatch import columnar_active, platform_eligible

    if columnar_active(len(workflow)) and platform_eligible(platform, itype):
        # Vectorized level-synchronous sweep — same per-edge additions
        # and ``max`` folds, byte-identical ranks (property-tested).
        from repro.kernels.columnar import get_columnar, upward_rank_values

        vals = upward_rank_values(workflow, platform, itype, include_transfers)
        return dict(zip(get_columnar(workflow).ids, vals.tolist()))
    # Single iterative O(V+E) sweep over the cached reversed-topo order,
    # against the uncopied adjacency/edge maps.  ``max`` over the same
    # operands is grouping-independent, so the ranks are byte-identical
    # to the straightforward oracle in tests/oracles/upward_rank.py
    # (property-tested).
    succ_map = workflow.succ_map()
    tasks = workflow._tasks
    runtime = platform.runtime
    transfer = platform.transfer_time
    ranks: Dict[str, float] = {}
    if include_transfers:
        edge_gb = workflow.edge_data_map()
        #: transfer time per edge at the run's uniform flavor, computed
        #: once per edge — the memoized transfer lookup of the kernels
        for tid in reversed(workflow.topological_order()):
            best = 0.0
            for succ in succ_map[tid]:
                cand = transfer(edge_gb[tid, succ], itype, itype) + ranks[succ]
                if cand > best:
                    best = cand
            ranks[tid] = runtime(tasks[tid], itype) + best
    else:
        for tid in reversed(workflow.topological_order()):
            best = 0.0
            for succ in succ_map[tid]:
                if ranks[succ] > best:
                    best = ranks[succ]
            ranks[tid] = runtime(tasks[tid], itype) + best
    return ranks


def heft_order(
    workflow: Workflow,
    platform: CloudPlatform,
    itype: InstanceType,
    include_transfers: bool = True,
) -> List[str]:
    """Tasks in decreasing upward rank (ties broken by id)."""
    ranks = upward_rank(workflow, platform, itype, include_transfers)
    return sorted(workflow.task_ids, key=lambda t: (-ranks[t], t))


def level_order(
    workflow: Workflow,
    platform: CloudPlatform,
    itype: InstanceType,
    descending_exec: bool = True,
) -> List[List[str]]:
    """Levels in DAG order; inside each level tasks sorted by execution
    time on *itype* (descending by default, the AllPar1LnS rule)."""
    out: List[List[str]] = []
    for level in workflow.levels():
        key = lambda t: (-platform.runtime(workflow.task(t), itype), t)
        if not descending_exec:
            key = lambda t: (platform.runtime(workflow.task(t), itype), t)
        out.append(sorted(level, key=key))
    return out
