"""The straightforward HEFT upward rank, kept as the oracle.

:func:`repro.core.allocation.ranking.upward_rank` is one vectorized
level-synchronous sweep over the columnar DAG.  This version walks the
reversed topological order through the copying public accessors and
the platform's scalar ``runtime``/``transfer_time``: identical output,
none of the arrays.  The kernel-equivalence property tests compare the two (see
``tests/core/test_kernel_equivalence.py`` and DESIGN.md §9).
"""

from __future__ import annotations

from typing import Dict

from repro.cloud.instance import InstanceType
from repro.cloud.platform import CloudPlatform
from repro.workflows.dag import Workflow


def upward_rank_reference(
    workflow: Workflow,
    platform: CloudPlatform,
    itype: InstanceType,
) -> Dict[str, float]:
    """HEFT upward rank of every task, the plain way."""
    if not workflow.validated:
        workflow.validate()
    ranks: Dict[str, float] = {}
    for tid in reversed(workflow.topological_order()):
        w = platform.runtime(workflow.task(tid), itype)
        best = 0.0
        for succ in workflow.successors(tid):
            c = platform.transfer_time(
                workflow.data_gb(tid, succ), itype, itype, same_vm=False
            )
            best = max(best, c + ranks[succ])
        ranks[tid] = w + best
    return ranks
