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
per-task rent ledger (:func:`~repro.core.allocation.upgrade.commit_within_budget`).
"""

from __future__ import annotations

from typing import Dict, Set

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

        while True:
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
            new_rent = task_rent(workflow, platform, target, upgraded, region)
            if commit_within_budget(rent, target, new_rent, budget):
                task_types[target] = upgraded
            else:
                # Costs are additive per task under OneVMperTask and other
                # upgrades only spend more, so an unaffordable task stays
                # unaffordable: block it permanently.
                blocked.add(target)

        return one_vm_schedule(
            workflow, platform, task_types, region, algorithm=self.name
        ).validate()
