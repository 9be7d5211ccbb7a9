"""Incremental schedule construction.

A :class:`ScheduleBuilder` is the shared workbench of every allocation
algorithm + provisioning policy pair: the allocation strategy decides
*task order*, the provisioning policy decides *which VM* (existing or
new) each task lands on, and the builder maintains the resulting
estimated start/finish times, per-VM accumulated execution time and BTU
occupancy that both sides query.  Because scheduling is static and task
times deterministic, the builder's estimates are exact — a property the
test suite checks against the discrete-event simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

from repro.cloud.instance import InstanceType
from repro.cloud.platform import CloudPlatform
from repro.cloud.region import Region
from repro.cloud.vm import VM
from repro.core.schedule import Schedule
from repro.errors import SchedulingError
from repro.obs.metrics import MetricsRegistry
from repro.obs.metrics import current as current_metrics
from repro.workflows.dag import Workflow


@dataclass
class BuilderVM:
    """A VM being filled in during scheduling."""

    id: int
    itype: InstanceType
    region: Region
    #: task ids in execution order
    order: List[str] = field(default_factory=list)
    #: estimated [start, finish) per hosted task
    timing: Dict[str, tuple] = field(default_factory=dict)
    #: sum of execution durations — "the VM with the largest execution
    #: time" of the StartPar policies
    busy_seconds: float = 0.0

    @property
    def empty(self) -> bool:
        return not self.order

    @property
    def start_time(self) -> float:
        if self.empty:
            raise SchedulingError(f"vm{self.id} has no placements yet")
        return self.timing[self.order[0]][0]

    @property
    def ready_time(self) -> float:
        """When the VM becomes free (0 for an empty VM)."""
        if self.empty:
            return 0.0
        return self.timing[self.order[-1]][1]

    @property
    def uptime_seconds(self) -> float:
        if self.empty:
            return 0.0
        return self.ready_time - self.start_time


class ScheduleBuilder:
    """Mutable scheduling state for one (workflow, platform, region) run."""

    def __init__(
        self,
        workflow: Workflow,
        platform: CloudPlatform,
        default_itype: InstanceType,
        region: Region | None = None,
        region_chooser=None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        workflow.validate()
        self.workflow = workflow
        self.platform = platform
        self.default_itype = default_itype
        self.region = region or platform.default_region
        #: metrics sink: explicit kwarg, else the ambient registry (see
        #: :func:`repro.obs.metrics.current`); ``None`` keeps every hot
        #: path down to a single ``is not None`` branch
        self.metrics = metrics if metrics is not None else current_metrics()
        #: optional ``(task_id, builder) -> Region | None`` hook deciding
        #: where a *new* VM rented for a task lives (data locality);
        #: ``None`` from the hook falls back to the builder region
        self.region_chooser = region_chooser
        self._active_task: str | None = None
        self.vms: List[BuilderVM] = []
        self.task_vm: Dict[str, BuilderVM] = {}
        self.task_start: Dict[str, float] = {}
        self.task_finish: Dict[str, float] = {}
        self._levels = workflow.level_of()
        self._level_sizes: Dict[int, int] = {}
        for lvl in self._levels.values():
            self._level_sizes[lvl] = self._level_sizes.get(lvl, 0) + 1
        # --- hot-path structures (see DESIGN.md §9) ---------------------
        #: uncopied adjacency/edge maps — read-only
        self._pred_map = workflow.pred_map()
        self._edge_gb = workflow.edge_data_map()
        #: per-task data-ready memo: task -> (rows, pred vm ids, by-key memo)
        self._pred_cache: Dict[str, Tuple[list, FrozenSet[int], dict]] = {}
        #: ghosts handed out by :meth:`adopt_ghost` (ids go negative)
        self._ghost_count = 0

    # ------------------------------------------------------------------
    # queries used by provisioning policies
    # ------------------------------------------------------------------
    def level_of(self, task_id: str) -> int:
        return self._levels[task_id]

    def level_size(self, task_id: str) -> int:
        """Number of tasks sharing *task_id*'s level (its parallelism)."""
        return self._level_sizes[self._levels[task_id]]

    def is_entry(self, task_id: str) -> bool:
        return not self.workflow.predecessors(task_id)

    def exec_time(self, task_id: str, itype: InstanceType | None = None) -> float:
        """Estimated execution time of a task on *itype* (VM's type when
        placed, builder default otherwise)."""
        if itype is None:
            vm = self.task_vm.get(task_id)
            itype = vm.itype if vm is not None else self.default_itype
        return self.platform.runtime(self.workflow.task(task_id), itype)

    def busiest_vm(
        self, accept: Callable[[BuilderVM], bool] | None = None
    ) -> Optional[BuilderVM]:
        """The non-empty VM with the largest accumulated execution time
        that *accept* (if given) admits — ``max(busy, -id)`` over the
        accepted VMs, so ties go to the earliest rented.

        One running-max scan in id order: *accept* is asked only of a VM
        whose ``busy_seconds`` beats the best accepted so far.
        """
        best = None
        top = float("-inf")
        for vm in self.vms:
            if vm.order and vm.busy_seconds > top and (accept is None or accept(vm)):
                best = vm
                top = vm.busy_seconds
        return best

    def hosts_level(self, vm: BuilderVM, lvl: int) -> bool:
        """Does *vm* already run a task of DAG level *lvl*?  (The AllPar*
        exclusion: one VM per task of a level.)"""
        return lvl in map(self._levels.__getitem__, vm.order)

    def vm_of_largest_predecessor(self, task_id: str) -> Optional[BuilderVM]:
        """VM hosting the predecessor with the longest execution time
        (the AllPar* rule for sequential tasks)."""
        preds = [p for p in self.workflow.predecessors(task_id) if p in self.task_vm]
        if not preds:
            return None
        largest = max(preds, key=lambda p: (self.task_finish[p] - self.task_start[p], p))
        return self.task_vm[largest]

    def _pred_info(self, task_id: str) -> Tuple[list, FrozenSet[int], dict]:
        """Per-task predecessor snapshot backing ``earliest_start``.

        Predecessor placements are append-only (a placed task's finish
        never changes), so ``(finish, data_gb, host vm)`` rows are fixed
        the moment every predecessor is placed; they are computed once
        per task and dropped when the task itself is placed.
        """
        info = self._pred_cache.get(task_id)
        if info is None:
            finish = self.task_finish
            task_vm = self.task_vm
            edge_gb = self._edge_gb
            rows = []
            for pred in self._pred_map[task_id]:
                if pred not in finish:
                    raise SchedulingError(
                        f"cannot place {task_id!r}: predecessor {pred!r} unscheduled "
                        "(allocation order is not topological)"
                    )
                rows.append((finish[pred], edge_gb[pred, task_id], task_vm[pred]))
            info = (rows, frozenset(id(row[2]) for row in rows), {})
            self._pred_cache[task_id] = info
        return info

    def pred_hosts(self, task_id: str) -> FrozenSet[int]:
        """``id()`` of every VM hosting a predecessor of *task_id*."""
        return self._pred_info(task_id)[1]

    def _data_ready(self, task_id: str, vm: BuilderVM) -> float:
        """Latest ``predecessor finish + transfer`` onto *vm*: exact on
        a VM hosting a predecessor (``same_vm`` transfer), else
        :meth:`remote_data_ready` of its flavor and region."""
        rows, pred_vm_ids, _ = self._pred_info(task_id)
        if id(vm) in pred_vm_ids:
            return self._arrival(rows, vm.itype, vm.region, vm)
        return self.remote_data_ready(task_id, vm.itype, vm.region)

    def remote_data_ready(
        self, task_id: str, itype: InstanceType, region: Region
    ) -> float:
        """Data-ready of *task_id* on a VM of *itype* in *region* that
        hosts none of its predecessors: every edge pays its transfer.
        Memoized per task and (flavor, region) names, so scanning many
        same-flavor candidates costs O(1) each after the first."""
        rows, _, memo = self._pred_info(task_id)
        key = (itype.name, region.name)
        best = memo.get(key)
        if best is None:
            best = memo[key] = self._arrival(rows, itype, region, None)
        return best

    def _arrival(self, rows, itype, region, vm) -> float:
        """The latest of *rows*' ``finish + transfer`` onto a VM of
        *itype* in *region*, with no transfer from *vm* itself."""
        transfer = self.platform.transfer_time
        best = 0.0
        for fin, gb, pvm in rows:
            cand = fin + transfer(
                gb,
                pvm.itype,
                itype,
                same_vm=pvm is vm,
                src_region=pvm.region,
                dst_region=region,
            )
            if cand > best:
                best = cand
        return best

    def earliest_start(self, task_id: str, vm: BuilderVM) -> float:
        """Estimated start of *task_id* if placed next on *vm*: VM free
        time vs. latest predecessor finish + data transfer."""
        order = vm.order
        # vm.ready_time and vm.empty, inlined on the hot path
        ready = vm.timing[order[-1]][1] if order else 0.0
        data_ready = self._data_ready(task_id, vm)
        if data_ready > ready:
            ready = data_ready
        if not order and not self.platform.prebooted:
            # cold start: the VM is requested when the task becomes
            # ready and boots before it can execute anything
            ready += self.platform.boot_seconds
        return ready

    def paid_horizon(self, vm: BuilderVM) -> float:
        """Absolute time at which *vm* is released if no further task is
        placed on it: the end of its last started BTU.

        Idle VMs are deprovisioned at their BTU boundary (the standard
        IaaS practice this literature assumes), so a task can only
        *reuse* a VM if it can start before this horizon.
        """
        order = vm.order
        if not order:
            return float("inf")
        # vm.start_time + paid_seconds(vm.uptime_seconds), unrolled
        timing = vm.timing
        start = timing[order[0]][0]
        return start + self.platform.billing.paid_seconds(timing[order[-1]][1] - start)

    def owns(self, vm: BuilderVM) -> bool:
        """Is *vm* one of this builder's VMs?  Ghosts of crashed VMs
        (:meth:`adopt_ghost`) and other builders' VMs are not: nothing
        may be placed on them."""
        vid = vm.id
        return 0 <= vid < len(self.vms) and self.vms[vid] is vm

    def is_reusable(self, task_id: str, vm: BuilderVM) -> bool:
        """Can *task_id* still catch *vm* before it is released?"""
        if vm.empty:
            return True
        return self.earliest_start(task_id, vm) <= self.paid_horizon(vm) + 1e-9

    def fits_in_btu(self, task_id: str, vm: BuilderVM) -> bool:
        """Would *task_id*, placed next on *vm*, finish within the BTUs
        the VM has already started to pay?

        On an **empty** VM the question is whether the task fits one
        fresh BTU.  On a running VM the candidate's estimated finish must
        not cross the VM's current paid horizon
        (``start + btus(uptime) * BTU``); waiting time on the VM counts
        against the BTU exactly as in the paper's Fig. 1.
        """
        duration = self.exec_time(task_id, vm.itype)
        if vm.empty:
            return duration <= self.platform.billing.btu_seconds + 1e-9
        finish = self.earliest_start(task_id, vm) + duration
        return finish <= self.paid_horizon(vm) + 1e-9

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def begin_task(self, task_id: str) -> None:
        """Mark the task currently being placed, so region choosers can
        see which task a ``new_vm`` rental is for."""
        self._active_task = task_id

    def new_vm(self, itype: InstanceType | None = None, region: Region | None = None) -> BuilderVM:
        if region is None and self.region_chooser is not None and self._active_task:
            region = self.region_chooser(self._active_task, self)
        vm = BuilderVM(
            id=len(self.vms),
            itype=itype or self.default_itype,
            region=region or self.region,
        )
        self.vms.append(vm)
        if self.metrics is not None:
            self.metrics.inc("builder.vms_rented")
        return vm

    def adopt_vm(
        self,
        itype: InstanceType | None = None,
        region: Region | None = None,
        placements=(),
    ) -> BuilderVM:
        """Append a VM carrying already-realized history.

        The replan path seeds a fresh builder with the surviving runtime
        fleet before handing the unfinished sub-DAG to a provisioning
        policy; *placements* rows are ``(task_id, start, finish)`` frozen
        at their realized times.
        """
        vm = BuilderVM(
            id=len(self.vms),
            itype=itype or self.default_itype,
            region=region or self.region,
        )
        for tid, start, finish in placements:
            vm.order.append(tid)
            vm.timing[tid] = (start, finish)
            vm.busy_seconds += finish - start
            self.task_vm[tid] = vm
            self.task_start[tid] = start
            self.task_finish[tid] = finish
        self.vms.append(vm)
        return vm

    def adopt_ghost(
        self,
        itype: InstanceType,
        region: Region,
        placements=(),
    ) -> BuilderVM:
        """Record executions whose VM is gone (crashed): the policy can
        never place new work there — the ghost stays off ``vms`` and
        keeps a negative id — but transfer estimates for re-placed
        successors still need the origin's flavor and region."""
        self._ghost_count += 1
        ghost = BuilderVM(id=-self._ghost_count, itype=itype, region=region)
        for tid, start, finish in placements:
            self.task_vm[tid] = ghost
            self.task_start[tid] = start
            self.task_finish[tid] = finish
        return ghost

    def place(self, task_id: str, vm: BuilderVM) -> None:
        """Append *task_id* to *vm*'s execution order and fix its times."""
        if task_id in self.task_vm:
            raise SchedulingError(f"task {task_id!r} already placed")
        if vm.id >= len(self.vms) or vm is not self.vms[vm.id]:
            raise SchedulingError(f"vm{vm.id} does not belong to this builder")
        start = self.earliest_start(task_id, vm)
        duration = self.exec_time(task_id, vm.itype)
        vm.order.append(task_id)
        vm.timing[task_id] = (start, start + duration)
        vm.busy_seconds += duration
        self.task_vm[task_id] = vm
        self.task_start[task_id] = start
        self.task_finish[task_id] = start + duration
        # the task is placed: its data-ready memo is dead weight now
        self._pred_cache.pop(task_id, None)
        if self.metrics is not None:
            self.metrics.inc("builder.tasks_placed")

    # ------------------------------------------------------------------
    # result
    # ------------------------------------------------------------------
    @property
    def makespan(self) -> float:
        if not self.task_finish:
            return 0.0
        return max(self.task_finish.values())

    def build(self, algorithm: str = "", provisioning: str = "") -> Schedule:
        """Freeze the builder into an immutable, validated
        :class:`Schedule`."""
        unplaced = [t for t in self.workflow.task_ids if t not in self.task_vm]
        if unplaced:
            raise SchedulingError(f"unscheduled tasks remain: {unplaced}")
        vms: List[VM] = []
        for bvm in self.vms:
            if bvm.empty:
                continue  # a policy may have speculated a VM it never used
            vm = VM(
                id=len(vms),
                itype=bvm.itype,
                region=bvm.region,
                boot_seconds=self.platform.boot_seconds,
            )
            for tid in bvm.order:
                start, finish = bvm.timing[tid]
                vm.place(tid, start, finish - start)
            vms.append(vm)
        return Schedule(
            workflow=self.workflow,
            platform=self.platform,
            vms=vms,
            algorithm=algorithm,
            provisioning=provisioning,
        ).validate()
