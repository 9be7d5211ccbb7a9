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
from repro.kernels.dispatch import platform_eligible
from repro.workflows.dag import Workflow


def upward_rank(
    workflow: Workflow,
    platform: CloudPlatform,
    itype: InstanceType,
) -> Dict[str, float]:
    """HEFT upward rank of every task.

    Execution weights are the runtimes on *itype* (the run's uniform
    flavor; on a homogeneous platform the HEFT "mean across processors"
    reduces to exactly this). Edge weights are the store-and-forward
    transfer times between two VMs of that flavor in the default region.
    """
    if not workflow.validated:
        workflow.validate()
    if platform_eligible(platform, itype):
        # Vectorized level-synchronous sweep — same per-edge additions
        # and ``max`` folds, byte-identical ranks (property-tested).
        from repro.kernels.columnar import get_columnar, upward_rank_values

        vals = upward_rank_values(workflow, platform, itype)
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
    edge_gb = workflow.edge_data_map()
    for tid in reversed(workflow.topological_order()):
        best = 0.0
        for succ in succ_map[tid]:
            cand = transfer(edge_gb[tid, succ], itype, itype) + ranks[succ]
            if cand > best:
                best = cand
        ranks[tid] = runtime(tasks[tid], itype) + best
    return ranks


def heft_order(
    workflow: Workflow,
    platform: CloudPlatform,
    itype: InstanceType,
) -> List[str]:
    """Tasks in decreasing upward rank (ties broken by id)."""
    ranks = upward_rank(workflow, platform, itype)
    return sorted(workflow.task_ids, key=lambda t: (-ranks[t], t))


def level_order(
    workflow: Workflow,
    platform: CloudPlatform,
    itype: InstanceType,
) -> List[List[str]]:
    """Levels in DAG order; inside each level tasks sorted by descending
    execution time on *itype* (the AllPar1LnS rule)."""
    key = lambda t: (-platform.runtime(workflow.task(t), itype), t)
    return [sorted(level, key=key) for level in workflow.levels()]
