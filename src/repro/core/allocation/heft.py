"""HEFT with pluggable provisioning (paper Sect. III-B, Table I).

Classic HEFT orders tasks by decreasing upward rank; here the *where*
half of the algorithm is delegated to a provisioning policy —
OneVMperTask, StartParNotExceed or StartParExceed in the paper's
experiments (the policies that need no knowledge of task parallelism).
"""

from __future__ import annotations

from repro.cloud.instance import SMALL, InstanceType
from repro.cloud.platform import CloudPlatform
from repro.cloud.region import Region
from repro.core.allocation.base import SchedulingAlgorithm, register_algorithm
from repro.core.allocation.ranking import heft_order
from repro.core.builder import ScheduleBuilder
from repro.core.provisioning.base import ProvisioningPolicy, provisioning_policy
from repro.core.provisioning.one_vm_per_task import OneVMperTask
from repro.core.provisioning.start_par import StartParExceed, StartParNotExceed
from repro.core.schedule import Schedule
from repro.workflows.dag import Workflow


@register_algorithm
class HeftScheduler(SchedulingAlgorithm):
    """Rank-ordered list scheduling over a provisioning policy."""

    name = "HEFT"

    def __init__(
        self,
        provisioning: ProvisioningPolicy | str = "OneVMperTask",
    ) -> None:
        if isinstance(provisioning, str):
            provisioning = provisioning_policy(provisioning)
        self.provisioning = provisioning

    def _make_builder(self, workflow, platform, itype, region) -> ScheduleBuilder:
        """Hook for subclasses that attach region choosers etc."""
        return ScheduleBuilder(workflow, platform, itype, region)

    def schedule(
        self,
        workflow: Workflow,
        platform: CloudPlatform,
        *,
        itype: InstanceType = SMALL,
        region: Region | None = None,
    ) -> Schedule:
        # Stock runs take the fused columnar kernel (see
        # LevelScheduler.schedule).  Exact-type checks keep subclasses
        # (e.g. LocalityHeftScheduler's region chooser) on the builder
        # path.
        policy = self.provisioning
        fused_policy = (
            "onevm"
            if type(policy) is OneVMperTask
            else "startpar"
            if type(policy) in (StartParExceed, StartParNotExceed)
            else None
        )
        if type(self) is HeftScheduler and fused_policy is not None:
            from repro.kernels.provision import fused_heft_schedule

            return fused_heft_schedule(
                workflow,
                platform,
                itype,
                region,
                policy=fused_policy,
                exceed=getattr(policy, "exceed_btu", True),
                algorithm=self.name,
                provisioning=policy.name,
            )
        builder = self._make_builder(workflow, platform, itype, region)
        for tid in heft_order(workflow, platform, itype):
            builder.begin_task(tid)
            vm = self.provisioning.select_vm(tid, builder)
            builder.place(tid, vm)
        return builder.build(algorithm=self.name, provisioning=self.provisioning.name)
