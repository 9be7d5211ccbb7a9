"""AllPar1LnS and AllPar1LnSDyn (paper Sect. III-B).

*AllPar1LnS* ("all parallel, one level and sequentialize") reduces task
parallelism inside each DAG level: tasks are ranked by execution time
descending, the longest task defines a bin capacity, and shorter tasks
are first-fit packed into bins whose total length stays within that
capacity.  Each bin runs sequentially on a single VM; the longest task
always keeps a VM to itself, so the level's makespan is unchanged while
its rent drops.

*AllPar1LnSDyn* additionally buys speed inside a per-level budget — the
cost the level would incur under AllParNotExceed provisioning (every
parallel task on its own small VM, the worst case).  It upgrades the
longest task's VM rung by rung; when the level makespan shifts to some
other bin it tries to push that bin back below the longest task, rolling
back to the last valid configuration (within budget *and* makespan
dictated by the longest task) when it cannot.

Each bin takes a VM AllParNotExceed style from one candidate pool per
level (:class:`_LevelPool`): per flavor, the VMs rented before the
level, busiest first, with their ready times and paid horizons.  Only a
VM the level claims changes while the level is placed, and it leaves
the pool, so those values are read once per level.  A bin takes its
first task's largest predecessor's VM if that VM is in the pool and
its paid BTUs absorb the whole bin, else the first unclaimed candidate
that does, else a new VM.  Only candidates hosting a predecessor need
the exact start; the rest of a flavor share one data-ready time, as
every VM is in the builder's region.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Set, Tuple

from repro.cloud.instance import SMALL, InstanceType, next_faster
from repro.cloud.platform import CloudPlatform
from repro.cloud.region import Region
from repro.core.allocation.base import SchedulingAlgorithm, register_algorithm
from repro.core.allocation.ranking import level_order
from repro.core.builder import BuilderVM, ScheduleBuilder
from repro.core.schedule import Schedule
from repro.errors import SchedulingError
from repro.workflows.dag import Workflow

_EPS = 1e-9


def pack_level(tasks: Sequence[str], exec_time: Callable[[str], float]) -> List[List[str]]:
    """First-fit-decreasing packing of a level into sequential bins.

    Bin capacity is the longest task's execution time; bin 0 holds that
    task alone (it consumes the whole capacity).  Returns the bins in
    creation order, each a list of task ids to run sequentially.
    """
    if not tasks:
        return []
    ordered = sorted(tasks, key=lambda t: (-exec_time(t), t))
    capacity = exec_time(ordered[0])
    bins: List[List[str]] = [[ordered[0]]]
    used: List[float] = [capacity]
    for tid in ordered[1:]:
        e = exec_time(tid)
        for b, load in enumerate(used):
            if load + e <= capacity + _EPS:
                bins[b].append(tid)
                used[b] += e
                break
        else:
            bins.append([tid])
            used.append(e)
    return bins


class _LevelPool:
    """One level's reuse candidates: per flavor (by identity), the VMs
    rented before the level in ``(-busy_seconds, id)`` order, with their
    ready times and paid horizons (see the module docstring)."""

    __slots__ = ("builder", "flavors", "claimed")

    def __init__(self, builder: ScheduleBuilder) -> None:
        self.builder = builder
        self.flavors: Dict[int, List[Tuple[BuilderVM, float, float]]] = {}
        self.claimed: Set[int] = set()
        for vm in sorted(builder.vms, key=lambda vm: (-vm.busy_seconds, vm.id)):
            if not vm.empty:
                entry = (vm, vm.ready_time, builder.paid_horizon(vm))
                self.flavors.setdefault(id(vm.itype), []).append(entry)

    def take(self, bin_tasks: List[str], itype: InstanceType) -> BuilderVM:
        """Claim a VM of *itype* whose paid BTUs absorb the whole bin,
        or rent one.  A fit implies reuse: ``bin_exec >= 0``."""
        builder = self.builder
        head = bin_tasks[0]
        bin_exec = sum(builder.exec_time(t, itype) for t in bin_tasks)
        claimed = self.claimed
        candidates = self.flavors.get(id(itype), [])
        pred_vm = builder.vm_of_largest_predecessor(head)
        if pred_vm is not None and pred_vm.itype is itype:
            # tried first; unclaimed, it is a candidate with current values
            entry = (pred_vm, pred_vm.ready_time, builder.paid_horizon(pred_vm))
            candidates = [entry, *candidates]
        # a rented VM's first task reads the same memoized data-ready
        hosts = builder.pred_hosts(head)
        remote = builder.remote_data_ready(head, itype, builder.region)
        for vm, ready, horizon in candidates:
            if vm.id in claimed:
                continue
            if id(vm) in hosts:
                start = builder.earliest_start(head, vm)
            else:
                start = remote if remote > ready else ready
            if start + bin_exec <= horizon + _EPS:
                claimed.add(vm.id)
                return vm
        return builder.new_vm(itype)


class AllPar1LnSBase(SchedulingAlgorithm):
    """Shared placement loop; subclasses pick the per-bin VM flavors."""

    def _bin_types(
        self,
        workflow: Workflow,
        platform: CloudPlatform,
        region: Region,
        bins: List[List[str]],
        base: InstanceType,
    ) -> List[InstanceType]:
        return [base] * len(bins)

    def schedule(
        self,
        workflow: Workflow,
        platform: CloudPlatform,
        *,
        itype: InstanceType = SMALL,
        region: Region | None = None,
    ) -> Schedule:
        workflow.validate()
        reg = region or platform.default_region
        builder = ScheduleBuilder(workflow, platform, itype, reg)
        levels = level_order(workflow, platform, itype)
        for level_tasks in levels:
            bins = pack_level(
                level_tasks, lambda t: platform.runtime(workflow.task(t), itype)
            )
            types = self._bin_types(workflow, platform, reg, bins, itype)
            pool = _LevelPool(builder)
            for bin_tasks, bin_type in zip(bins, types):
                vm = pool.take(bin_tasks, bin_type)
                builder.place(bin_tasks[0], vm)
                for tid in bin_tasks[1:]:
                    # A later bin member can become ready only after the
                    # VM's BTU horizon expired (its own predecessors run
                    # late); the VM is gone by then, so the bin splits
                    # onto a fresh VM of the same flavor.
                    if not builder.is_reusable(tid, vm):
                        vm = builder.new_vm(bin_type)
                    builder.place(tid, vm)
        return builder.build(algorithm=self.name, provisioning="AllParNotExceed")


@register_algorithm
class AllPar1LnSScheduler(AllPar1LnSBase):
    name = "AllPar1LnS"


@register_algorithm
class AllPar1LnSDynScheduler(AllPar1LnSBase):
    name = "AllPar1LnSDyn"
    heterogeneous = True

    def __init__(self, budget_slack: float = 1.0) -> None:
        if budget_slack <= 0:
            raise SchedulingError("budget_slack must be positive")
        #: multiplier on the per-level AllParNotExceed budget (1.0 = paper)
        self.budget_slack = budget_slack

    def _bin_types(
        self,
        workflow: Workflow,
        platform: CloudPlatform,
        region: Region,
        bins: List[List[str]],
        base: InstanceType,
    ) -> List[InstanceType]:
        billing = platform.billing

        def duration(b: int, types: List[InstanceType]) -> float:
            return sum(
                platform.runtime(workflow.task(t), types[b]) for t in bins[b]
            )

        def level_cost(types: List[InstanceType]) -> float:
            return sum(
                billing.vm_cost(duration(b, types), types[b], region)
                for b in range(len(bins))
            )

        # Worst-case budget: every parallel task of the level on its own
        # base-flavor VM (AllParNotExceed provisioning).
        budget = self.budget_slack * sum(
            billing.vm_cost(platform.runtime(workflow.task(t), base), base, region)
            for level in bins
            for t in level
        )

        types = [base] * len(bins)
        if len(bins) == 0:
            return types

        def longest_dominates(ts: List[InstanceType]) -> bool:
            d0 = duration(0, ts)
            return all(duration(b, ts) <= d0 + _EPS for b in range(1, len(bins)))

        last_valid = list(types)  # all-small is within budget and dominated
        while True:
            nt = next_faster(types[0])
            if nt is None:
                break
            trial = list(types)
            trial[0] = nt
            if level_cost(trial) > budget + _EPS:
                break  # current committed state remains the result
            types = trial
            if longest_dominates(types):
                last_valid = list(types)
                continue
            # Makespan shifted off the longest task: speed the offending
            # bins up until they drop back below it, within budget.
            repaired = True
            d0 = duration(0, types)
            for b in range(1, len(bins)):
                while duration(b, types) > d0 + _EPS:
                    nb = next_faster(types[b])
                    if nb is None:
                        repaired = False
                        break
                    trial = list(types)
                    trial[b] = nb
                    if level_cost(trial) > budget + _EPS:
                        repaired = False
                        break
                    types = trial
                if not repaired:
                    break
            if repaired and longest_dominates(types):
                last_valid = list(types)
            else:
                types = list(last_valid)
                break
        return types
