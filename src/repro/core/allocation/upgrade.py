"""Shared machinery for the dynamic (VM-speed-upgrading) strategies.

CPA-Eager and Gain both start from HEFT + OneVMperTask on small
instances and then raise individual tasks' VM flavors.  Under
OneVMperTask every task owns its VM, so a configuration is fully
described by a ``task id -> InstanceType`` map; this module rebuilds the
concrete schedule and its cost for any such map, and keeps the per-task
rent ledger the upgrade loops re-price one task at a time.
"""

from __future__ import annotations

from typing import Dict, Mapping

from repro.cloud.instance import InstanceType
from repro.cloud.platform import CloudPlatform
from repro.cloud.region import Region
from repro.core.builder import ScheduleBuilder
from repro.core.schedule import Schedule
from repro.workflows.dag import Workflow


def one_vm_schedule(
    workflow: Workflow,
    platform: CloudPlatform,
    task_types: Mapping[str, InstanceType],
    region: Region | None = None,
    algorithm: str = "OneVM",
) -> Schedule:
    """Schedule with a dedicated VM per task, flavored by *task_types*.

    Timing under OneVMperTask is order-independent (each task starts as
    soon as its inputs arrive), so tasks are placed in topological order.
    """
    default = next(iter(task_types.values())) if task_types else platform.itype("small")
    builder = ScheduleBuilder(workflow, platform, default, region)
    for tid in workflow.topological_order():
        vm = builder.new_vm(task_types[tid])
        builder.place(tid, vm)
    return builder.build(algorithm=algorithm, provisioning="OneVMperTask")


def per_task_vm_cost(
    workflow: Workflow,
    platform: CloudPlatform,
    task_types: Mapping[str, InstanceType],
    region: Region | None = None,
) -> Dict[str, float]:
    """Rent cost of each task's dedicated VM.

    Under OneVMperTask a VM's uptime equals its task's execution time,
    so costs decompose exactly per task — the additivity Gain's matrix
    and the budget checks rely on.
    """
    reg = region or platform.default_region
    return {
        tid: task_rent(workflow, platform, tid, itype, reg)
        for tid, itype in task_types.items()
    }


def task_rent(
    workflow: Workflow,
    platform: CloudPlatform,
    task_id: str,
    itype: InstanceType,
    region: Region | None = None,
) -> float:
    """Rent of *task_id*'s dedicated VM when it runs on *itype*."""
    exec_s = platform.runtime(workflow.task(task_id), itype)
    return platform.billing.vm_cost(exec_s, itype, region or platform.default_region)


def commit_within_budget(
    rent: Dict[str, float], task_id: str, new_rent: float, budget: float
) -> bool:
    """Set *task_id*'s entry of the *rent* ledger to *new_rent* when the
    configuration total stays within *budget*; leave it as it was
    otherwise.  Returns whether the upgrade was committed.

    The ledger is :func:`per_task_vm_cost` kept up to date one task at a
    time.  Summing it adds the same addends in the same (task) order as
    :func:`total_rent_cost` on the upgraded configuration, so the budget
    test sees the same float without re-pricing every task.
    """
    old = rent[task_id]
    rent[task_id] = new_rent
    if sum(rent.values()) <= budget + 1e-9:
        return True
    rent[task_id] = old
    return False


def total_rent_cost(
    workflow: Workflow,
    platform: CloudPlatform,
    task_types: Mapping[str, InstanceType],
    region: Region | None = None,
) -> float:
    """Sum of :func:`per_task_vm_cost` over all tasks."""
    return sum(per_task_vm_cost(workflow, platform, task_types, region).values())
