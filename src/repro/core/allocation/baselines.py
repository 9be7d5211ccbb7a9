"""Fixed-pool baselines from the paper's related-work section.

Commercial clouds use "simple allocation methods such as Round Robin
(Amazon EC2) [and] least connections (Rackspace) ... Other simple SAs
include Least-Load" (Sect. II).  These are inelastic: a fixed pool of
*pool_size* VMs is rented up front and tasks are spread across it —
the contrast class for the paper's elastic provisioning policies.
"""

from __future__ import annotations

from repro.cloud.instance import SMALL, InstanceType
from repro.cloud.platform import CloudPlatform
from repro.cloud.region import Region
from repro.core.allocation.base import SchedulingAlgorithm, register_algorithm
from repro.core.allocation.ranking import heft_order
from repro.core.builder import ScheduleBuilder
from repro.core.schedule import Schedule
from repro.errors import SchedulingError
from repro.workflows.dag import Workflow


class _FixedPoolScheduler(SchedulingAlgorithm):
    """Common machinery: rent *pool_size* VMs, order tasks by HEFT rank,
    delegate the pick-a-VM rule to the subclass."""

    def __init__(self, pool_size: int = 4) -> None:
        if pool_size < 1:
            raise SchedulingError(f"pool_size must be >= 1, got {pool_size}")
        self.pool_size = pool_size

    def _pick(self, index: int, builder: ScheduleBuilder, task_id: str):
        raise NotImplementedError

    def schedule(
        self,
        workflow: Workflow,
        platform: CloudPlatform,
        *,
        itype: InstanceType = SMALL,
        region: Region | None = None,
    ) -> Schedule:
        workflow.validate()
        builder = ScheduleBuilder(workflow, platform, itype, region)
        pool = [builder.new_vm() for _ in range(min(self.pool_size, len(workflow)))]
        for i, tid in enumerate(heft_order(workflow, platform, itype)):
            builder.place(tid, self._pick(i, builder, tid) or pool[0])
        return builder.build(algorithm=self.name, provisioning="FixedPool")


@register_algorithm
class RoundRobinScheduler(_FixedPoolScheduler):
    """Cyclic assignment over the pool (the EC2 load-balancer default)."""

    name = "RoundRobin"

    def _pick(self, index: int, builder: ScheduleBuilder, task_id: str):
        return builder.vms[index % len(builder.vms)]


@register_algorithm
class LeastLoadScheduler(_FixedPoolScheduler):
    """Each task goes to the pool VM with the least accumulated
    execution time (ties to the lowest VM id)."""

    name = "LeastLoad"

    def _pick(self, index: int, builder: ScheduleBuilder, task_id: str):
        return min(builder.vms, key=lambda vm: (vm.busy_seconds, vm.id))
