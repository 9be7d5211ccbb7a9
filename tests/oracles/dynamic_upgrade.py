"""Whole-configuration oracle for the dynamic upgrade strategies.

:class:`~repro.core.allocation.cpa_eager.CpaEagerScheduler` and
:class:`~repro.core.allocation.gain.GainScheduler` keep a per-task rent
ledger and re-price only the task they just upgraded.  The loops before
that change rebuilt or re-priced the whole configuration on every
one-task step; these functions keep those loops verbatim as the
reference ``tests/core/test_dynamic_oracle.py`` compares the incremental
schedulers against (same task -> flavor map, same makespan, same cost).
"""

from __future__ import annotations

import math
from typing import Dict, Set, Tuple

from repro.cloud.instance import SMALL, InstanceType, faster_types, next_faster
from repro.cloud.platform import CloudPlatform
from repro.cloud.region import Region
from repro.core.allocation.upgrade import one_vm_schedule, total_rent_cost
from repro.core.schedule import Schedule
from repro.workflows.dag import Workflow


def cpa_eager_oracle(
    workflow: Workflow,
    platform: CloudPlatform,
    budget_factor: float = 2.0,
    *,
    itype: InstanceType = SMALL,
    region: Region | None = None,
) -> Schedule:
    """CPA-Eager, rebuilding and re-pricing every configuration."""
    workflow.validate()
    start_type = itype
    task_types: Dict[str, InstanceType] = {
        tid: start_type for tid in workflow.task_ids
    }
    budget = budget_factor * total_rent_cost(
        workflow, platform, task_types, region
    )
    blocked: Set[str] = set()

    while True:
        current = one_vm_schedule(workflow, platform, task_types, region)
        cp, _length = workflow.critical_path(
            exec_time=lambda t: platform.runtime(
                workflow.task(t), task_types[t]
            ),
            transfer_time=lambda u, v: platform.transfer_time(
                workflow.data_gb(u, v), task_types[u], task_types[v]
            ),
        )
        candidates = [
            t
            for t in cp
            if t not in blocked and next_faster(task_types[t]) is not None
        ]
        if not candidates:
            break
        target = max(
            candidates,
            key=lambda t: (platform.runtime(workflow.task(t), task_types[t]), t),
        )
        upgraded = next_faster(task_types[target])
        assert upgraded is not None
        trial = dict(task_types)
        trial[target] = upgraded
        if total_rent_cost(workflow, platform, trial, region) <= budget + 1e-9:
            task_types = trial
        else:
            blocked.add(target)
        del current  # rebuilt next iteration

    return one_vm_schedule(
        workflow, platform, task_types, region, algorithm="CPA-Eager"
    ).validate()


def _gain_best_cell(
    workflow: Workflow,
    platform: CloudPlatform,
    region: Region,
    task_types: Dict[str, InstanceType],
    blocked: Set[Tuple[str, str]],
) -> Tuple[str, InstanceType] | None:
    """The (task, new type) upgrade with the largest gain, or None."""
    billing = platform.billing
    best: Tuple[float, str, InstanceType] | None = None
    for tid, cur in task_types.items():
        task = workflow.task(tid)
        exec_cur = platform.runtime(task, cur)
        cost_cur = billing.vm_cost(exec_cur, cur, region)
        for new in faster_types(cur):
            if (tid, new.name) in blocked:
                continue
            exec_new = platform.runtime(task, new)
            cost_new = billing.vm_cost(exec_new, new, region)
            dexec = exec_cur - exec_new
            dcost = cost_new - cost_cur
            gain = math.inf if dcost <= 1e-12 else dexec / dcost
            if gain <= 0:
                continue
            if best is None or gain > best[0] or (
                gain == best[0] and (tid, new.speedup) < (best[1], best[2].speedup)
            ):
                best = (gain, tid, new)
    if best is None:
        return None
    return best[1], best[2]


def gain_oracle(
    workflow: Workflow,
    platform: CloudPlatform,
    budget_factor: float = 2.0,
    *,
    itype: InstanceType = SMALL,
    region: Region | None = None,
) -> Schedule:
    """Gain, rescanning the whole gain matrix on every step."""
    workflow.validate()
    reg = region or platform.default_region
    task_types: Dict[str, InstanceType] = {
        tid: itype for tid in workflow.task_ids
    }
    budget = budget_factor * total_rent_cost(
        workflow, platform, task_types, reg
    )
    blocked: Set[Tuple[str, str]] = set()

    while True:
        cell = _gain_best_cell(workflow, platform, reg, task_types, blocked)
        if cell is None:
            break
        tid, new_type = cell
        trial = dict(task_types)
        trial[tid] = new_type
        if total_rent_cost(workflow, platform, trial, reg) <= budget + 1e-9:
            task_types = trial
        else:
            blocked.add((tid, new_type.name))

    return one_vm_schedule(
        workflow, platform, task_types, reg, algorithm="GAIN"
    ).validate()
