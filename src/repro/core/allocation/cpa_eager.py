"""CPA-Eager (paper Sect. III-B).

Starting from the OneVMperTask-small configuration, the strategy
"systematically increases the speed of VMs allocated to tasks lying on
the critical path", because the makespan is the sum of the execution
times along that path.  Upgrades proceed one catalog rung at a time on
the critical-path task with the longest current execution time, and a
candidate upgrade is committed only when the total rent stays within the
budget — ``budget_factor`` times the HEFT + OneVMperTask-small reference
cost (we read the paper's garbled budget sentence as 2x for CPA-Eager;
see DESIGN.md).  Each step re-prices only the upgraded task in a
per-task rent ledger (:func:`~repro.core.allocation.upgrade.commit_within_budget`)
and re-sweeps the critical path only from the upgraded task onward
(:class:`_CriticalPath`).
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, List, Set

from repro.cloud.instance import SMALL, InstanceType, next_faster
from repro.cloud.platform import CloudPlatform
from repro.cloud.region import Region
from repro.core.allocation.base import SchedulingAlgorithm, register_algorithm
from repro.core.allocation.upgrade import (
    commit_within_budget,
    one_vm_schedule,
    per_task_vm_cost,
    task_rent,
)
from repro.core.schedule import Schedule
from repro.errors import SchedulingError
from repro.workflows.dag import Workflow


class _CriticalPath:
    """``Workflow.critical_path`` under per-task flavors, kept across
    one-task upgrades.

    Tasks sit at their position in the generation peel, the order
    ``critical_path`` sweeps in, over the same insertion-ordered
    ``_pred`` rows, so every ``dist[p] + transfer`` candidate and every
    first-maximum tie-break is the full sweep's.  Execution and transfer
    times live in tables that an upgrade refreshes only for the upgraded
    task and its edges; the tasks before it in peel order depend only
    on earlier tasks, so only the rest is re-swept.
    """

    def __init__(
        self, workflow: Workflow, platform: CloudPlatform, types: Dict[str, InstanceType]
    ) -> None:
        self.workflow = workflow
        self.platform = platform
        self.types = types
        self.order: List[str] = list(chain.from_iterable(workflow._generations()))
        self.pos = {t: k for k, t in enumerate(self.order)}
        rows = [workflow._pred[t] for t in self.order]
        self.preds = [[self.pos[p] for p in row] for row in rows]
        self.gb = [list(row.values()) for row in rows]
        self.succs: List[List[int]] = [[] for _ in self.order]
        for k, row in enumerate(self.preds):
            for p in row:
                self.succs[p].append(k)
        self.exec = [self._runtime(k) for k in range(len(self.order))]
        self.cost = [self._transfers(k) for k in range(len(self.order))]
        self.dist = [0.0] * len(self.order)
        self.best_pred = [-1] * len(self.order)
        self._sweep(0)

    def _runtime(self, k: int) -> float:
        tid = self.order[k]
        return self.platform.runtime(self.workflow.task(tid), self.types[tid])

    def _transfers(self, k: int) -> List[float]:
        """Transfer times of the edges into the task at position *k*."""
        types = self.types
        order = self.order
        dst = types[order[k]]
        return [
            self.platform.transfer_time(gb, types[order[p]], dst)
            for p, gb in zip(self.preds[k], self.gb[k])
        ]

    def _sweep(self, lo: int) -> None:
        dist = self.dist
        best_pred = self.best_pred
        for k in range(lo, len(dist)):
            best, pred = 0.0, -1
            for p, c in zip(self.preds[k], self.cost[k]):
                cand = dist[p] + c
                if cand > best:
                    best, pred = cand, p
            dist[k] = best + self.exec[k]
            best_pred[k] = pred
        k = dist.index(max(dist))  # the first maximum in peel order
        path = []
        while k != -1:
            path.append(self.order[k])
            k = best_pred[k]
        self.path = path[::-1]

    def exec_time(self, tid: str) -> float:
        return self.exec[self.pos[tid]]

    def upgraded(self, tid: str) -> None:
        """Re-time *tid* at its new flavor in ``types`` and re-sweep."""
        k = self.pos[tid]
        self.exec[k] = self._runtime(k)
        for s in (k, *self.succs[k]):
            self.cost[s] = self._transfers(s)
        self._sweep(k)


@register_algorithm
class CpaEagerScheduler(SchedulingAlgorithm):
    name = "CPA-Eager"
    heterogeneous = True

    def __init__(self, budget_factor: float = 2.0) -> None:
        if budget_factor < 1.0:
            raise SchedulingError(
                f"budget_factor must be >= 1 (got {budget_factor}): the "
                "starting configuration already costs 1x the reference"
            )
        self.budget_factor = budget_factor

    def schedule(
        self,
        workflow: Workflow,
        platform: CloudPlatform,
        *,
        itype: InstanceType = SMALL,
        region: Region | None = None,
    ) -> Schedule:
        workflow.validate()
        task_types: Dict[str, InstanceType] = {
            tid: itype for tid in workflow.task_ids
        }
        rent = per_task_vm_cost(workflow, platform, task_types, region)
        budget = self.budget_factor * sum(rent.values())
        blocked: Set[str] = set()
        path = _CriticalPath(workflow, platform, task_types)

        while True:
            candidates = [
                t
                for t in path.path
                if t not in blocked and next_faster(task_types[t]) is not None
            ]
            if not candidates:
                break
            target = max(candidates, key=lambda t: (path.exec_time(t), t))
            upgraded = next_faster(task_types[target])
            assert upgraded is not None
            new_rent = task_rent(workflow, platform, target, upgraded, region)
            if commit_within_budget(rent, target, new_rent, budget):
                task_types[target] = upgraded
                path.upgraded(target)
            else:
                # Costs are additive per task under OneVMperTask and other
                # upgrades only spend more, so an unaffordable task stays
                # unaffordable: block it permanently.
                blocked.add(target)

        return one_vm_schedule(
            workflow, platform, task_types, region, algorithm=self.name
        )
