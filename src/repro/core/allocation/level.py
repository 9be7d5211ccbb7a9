"""Level-ranked list scheduling, and the stand-alone AllPar[Not]Exceed
strategies built on it (paper Sect. III-B).

The workflow is split into levels of mutually parallel tasks; levels are
scheduled in DAG order and tasks inside a level in descending execution
time (a deterministic stand-in for the paper's "arbitrary" order), each
placed by the provisioning policy of the same name.
"""

from __future__ import annotations

from repro.cloud.instance import SMALL, InstanceType
from repro.cloud.platform import CloudPlatform
from repro.cloud.region import Region
from repro.core.allocation.base import SchedulingAlgorithm, register_algorithm
from repro.core.allocation.ranking import level_order
from repro.core.builder import ScheduleBuilder
from repro.core.provisioning.all_par import AllParExceed, AllParNotExceed
from repro.core.provisioning.base import ProvisioningPolicy, provisioning_policy
from repro.core.schedule import Schedule
from repro.workflows.dag import Workflow


class LevelScheduler(SchedulingAlgorithm):
    """Generic level-ranking scheduler over any provisioning policy."""

    name = "Level"

    def __init__(
        self,
        provisioning: ProvisioningPolicy | str = "AllParExceed",
    ) -> None:
        if isinstance(provisioning, str):
            provisioning = provisioning_policy(provisioning)
        self.provisioning = provisioning

    def schedule(
        self,
        workflow: Workflow,
        platform: CloudPlatform,
        *,
        itype: InstanceType = SMALL,
        region: Region | None = None,
    ) -> Schedule:
        # Stock runs take the fused columnar kernel at any size —
        # byte-identical schedules and counters (property-tested), one
        # array pass instead of per-object queries.  Exact-type checks:
        # a subclassed scheduler/policy may override behavior the fused
        # kernel inlines.
        stock_policy = type(self.provisioning) in (AllParExceed, AllParNotExceed)
        if type(self) in (LevelScheduler, AllParScheduler) and stock_policy:
            from repro.kernels.provision import fused_level_schedule

            return fused_level_schedule(
                workflow,
                platform,
                itype,
                region,
                exceed=self.provisioning.exceed_btu,
                algorithm=self.name,
                provisioning=self.provisioning.name,
            )
        builder = ScheduleBuilder(workflow, platform, itype, region)
        for level in level_order(workflow, platform, itype):
            for tid in level:
                builder.begin_task(tid)
                vm = self.provisioning.select_vm(tid, builder)
                builder.place(tid, vm)
        return builder.build(algorithm=self.name, provisioning=self.provisioning.name)


@register_algorithm
class AllParScheduler(LevelScheduler):
    """The paper's AllPar[Not]Exceed used *as* a scheduling algorithm:
    level ranking + the same-named provisioning policy."""

    name = "AllPar"

    def __init__(self, exceed: bool = True) -> None:
        super().__init__("AllParExceed" if exceed else "AllParNotExceed")
        self.exceed = exceed

    def schedule(
        self,
        workflow: Workflow,
        platform: CloudPlatform,
        *,
        itype: InstanceType = SMALL,
        region: Region | None = None,
    ) -> Schedule:
        out = super().schedule(workflow, platform, itype=itype, region=region)
        # Report under the provisioning name, matching the paper's plots;
        # only the labels change, so the relabeled plan shares the
        # columns and the feasibility verdict.
        return out.relabeled(self.provisioning.name, self.provisioning.name)
