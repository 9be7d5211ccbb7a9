"""Data-locality-aware multi-region scheduling.

The paper observes that "the strategies that tend to allocate more VMs
are better suited for tasks with large data dependencies where the VM
should be as close as possible to the data" (Sect. III-A) but never
evaluates it — all its experiments run in one region.  This module does:
entry tasks can be *pinned* to the region holding their dataset
(``Task.attrs['region']``), and the data-gravity chooser rents each
task's new VM in the region its largest input lives in, so the wide,
cheap branches stay next to their data and only the narrow join edges
pay cross-region egress.
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.cloud.platform import CloudPlatform
from repro.cloud.region import Region
from repro.core.allocation.base import register_algorithm
from repro.core.allocation.heft import HeftScheduler
from repro.core.builder import ScheduleBuilder
from repro.workflows.dag import Workflow
from repro.workflows.task import Task


def pin_regions(wf: Workflow, pins: Mapping[str, str]) -> Workflow:
    """Copy of *wf* with ``attrs['region']`` set on the pinned tasks —
    declaring where each task's dataset lives."""
    out = Workflow(wf.name)
    for task in wf.tasks:
        attrs = dict(task.attrs)
        if task.id in pins:
            attrs["region"] = pins[task.id]
        out.add_task(Task(task.id, task.work, task.category, attrs))
    for u, v, gb in wf.edges():
        out.add_dependency(u, v, gb)
    return out.validate()


def pinned_region(platform: CloudPlatform, task: Task) -> Optional[Region]:
    name = task.attrs.get("region")
    return platform.region(str(name)) if name else None


def pins_only_chooser(platform: CloudPlatform):
    """Honor region pins; everything unpinned stays in the builder's
    default region — the baseline that respects data placement but does
    not chase it."""

    def chooser(task_id: str, builder: ScheduleBuilder) -> Optional[Region]:
        return pinned_region(platform, builder.workflow.task(task_id))

    return chooser


def data_gravity_chooser(platform: CloudPlatform):
    """Honor pins, then follow the data: a new VM is rented in the
    region of the already-placed predecessor shipping the most data."""

    def chooser(task_id: str, builder: ScheduleBuilder) -> Optional[Region]:
        pin = pinned_region(platform, builder.workflow.task(task_id))
        if pin is not None:
            return pin
        best_region, best_volume = None, -1.0
        for pred in builder.workflow.predecessors(task_id):
            vm = builder.task_vm.get(pred)
            if vm is None:
                continue
            gb = builder.workflow.data_gb(pred, task_id)
            if gb > best_volume:
                best_volume, best_region = gb, vm.region
        return best_region

    return chooser


@register_algorithm
class LocalityHeftScheduler(HeftScheduler):
    """HEFT + provisioning with data-gravity region selection.

    ``follow_data=False`` gives the pins-only baseline (datasets are
    respected, compute stays home) for apples-to-apples comparisons.
    """

    name = "HEFT-Locality"
    heterogeneous = False

    def __init__(
        self,
        provisioning="OneVMperTask",
        follow_data: bool = True,
    ) -> None:
        super().__init__(provisioning)
        self.follow_data = follow_data

    def _make_builder(self, workflow, platform, itype, region) -> ScheduleBuilder:
        chooser = (
            data_gravity_chooser(platform)
            if self.follow_data
            else pins_only_chooser(platform)
        )
        return ScheduleBuilder(
            workflow, platform, itype, region, region_chooser=chooser
        )
