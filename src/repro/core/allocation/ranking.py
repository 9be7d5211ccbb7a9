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
from repro.kernels.columnar import get_columnar, upward_rank_values
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
    One vectorized level-synchronous sweep
    (:func:`~repro.kernels.columnar.upward_rank_values`), byte-identical
    to the oracle in ``tests/oracles/upward_rank.py`` (property-tested).
    """
    vals = upward_rank_values(workflow, platform, itype)
    return dict(zip(get_columnar(workflow).ids, vals.tolist()))


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
