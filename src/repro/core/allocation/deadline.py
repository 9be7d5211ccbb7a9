"""SHEFT-style deadline-constrained scheduling.

The paper's related work (Sect. II) describes SHEFT — "an extension of
HEFT which uses cloud resources whenever needed to decrease the makespan
below a deadline" — and Byun et al.'s cost-optimized elastic
provisioning that exploits any makespan/deadline slack to cut rent.
:class:`DeadlineScheduler` implements both halves on the OneVMperTask
substrate:

1. **speed up**: while the makespan exceeds the deadline, upgrade the
   critical-path task with the largest remaining execution time one
   catalog rung (the CPA-Eager move, but deadline- rather than
   budget-driven);
2. **cool down**: while slack remains, undo the *most expensive* upgrade
   whose removal keeps the makespan within the deadline — recovering the
   Byun-style "use the minimum-makespan/deadline difference to reduce
   costs".

Raises :class:`~repro.errors.SchedulingError` when even the all-xlarge
configuration misses the deadline (infeasible), unless ``best_effort``.
"""

from __future__ import annotations

from typing import Dict

from repro.cloud.instance import SMALL, InstanceType, next_faster
from repro.cloud.platform import CloudPlatform
from repro.cloud.region import Region
from repro.core.allocation.base import SchedulingAlgorithm, register_algorithm
from repro.core.allocation.upgrade import one_vm_schedule, total_rent_cost
from repro.core.schedule import Schedule
from repro.errors import SchedulingError
from repro.workflows.dag import Workflow


@register_algorithm
class DeadlineScheduler(SchedulingAlgorithm):
    name = "SHEFT-Deadline"
    heterogeneous = True

    def __init__(self, deadline: float = float("inf"), best_effort: bool = False) -> None:
        if deadline <= 0:
            raise SchedulingError(f"deadline must be positive, got {deadline}")
        self.deadline = deadline
        self.best_effort = best_effort

    # ------------------------------------------------------------------
    def _makespan(self, workflow, platform, types) -> float:
        _, length = workflow.critical_path(
            exec_time=lambda t: platform.runtime(workflow.task(t), types[t]),
            transfer_time=lambda u, v: platform.transfer_time(
                workflow.data_gb(u, v), types[u], types[v]
            ),
        )
        return length

    def schedule(
        self,
        workflow: Workflow,
        platform: CloudPlatform,
        *,
        itype: InstanceType = SMALL,
        region: Region | None = None,
    ) -> Schedule:
        workflow.validate()
        types: Dict[str, InstanceType] = {t: itype for t in workflow.task_ids}

        # Phase 1 — speed up until the deadline holds.
        while self._makespan(workflow, platform, types) > self.deadline:
            cp, _ = workflow.critical_path(
                exec_time=lambda t: platform.runtime(workflow.task(t), types[t]),
                transfer_time=lambda u, v: platform.transfer_time(
                    workflow.data_gb(u, v), types[u], types[v]
                ),
            )
            upgradable = [t for t in cp if next_faster(types[t]) is not None]
            if not upgradable:
                if self.best_effort:
                    break
                raise SchedulingError(
                    f"deadline {self.deadline:.0f}s infeasible: even the "
                    f"fastest configuration needs "
                    f"{self._makespan(workflow, platform, types):.0f}s"
                )
            target = max(
                upgradable,
                key=lambda t: (platform.runtime(workflow.task(t), types[t]), t),
            )
            nxt = next_faster(types[target])
            assert nxt is not None
            types[target] = nxt

        # Phase 2 — cool down: drop upgrades the deadline doesn't need,
        # most expensive first.
        improved = True
        while improved:
            improved = False
            upgraded = sorted(
                (t for t in workflow.task_ids if types[t] is not itype),
                key=lambda t: (
                    -total_rent_cost(workflow, platform, {t: types[t]}, region),
                    t,
                ),
            )
            for t in upgraded:
                trial = dict(types)
                trial[t] = itype
                if self._makespan(workflow, platform, trial) <= self.deadline:
                    saved_now = total_rent_cost(
                        workflow, platform, {t: types[t]}, region
                    ) - total_rent_cost(workflow, platform, {t: itype}, region)
                    if saved_now > 0:
                        types = trial
                        improved = True
                        break

        sched = one_vm_schedule(workflow, platform, types, region, algorithm=self.name)
        if not self.best_effort and sched.makespan > self.deadline + 1e-6:
            # transfers between concrete VMs can exceed the critical-path
            # estimate only through rounding; guard anyway
            raise SchedulingError(
                f"built schedule misses the deadline: {sched.makespan:.1f}s "
                f"> {self.deadline:.1f}s"
            )
        return sched
