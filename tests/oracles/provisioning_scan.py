"""Straightforward filter-then-max provisioning kernels, kept as oracles.

These classes are the original full-scan implementations of the paper's
five policies.  ``AllPar*Reference`` walks every VM's complete task
list per placement and filters the whole candidate set before taking
its maximum (O(V·tasks)); ``StartPar*Reference`` filters the whole
fleet per task and takes its own ``max``, independent of
``ScheduleBuilder.busiest_vm``.  The production ``select_vm`` in
``all_par.py`` / ``start_par.py`` makes one running-max scan that asks
the tests only of a VM busier than the best so far, and the fused
kernels of ``repro.kernels.provision`` serve stock runs.  Obviously
correct, hopelessly quadratic.

They live with the tests, outside the package, and are not registered
in ``PROVISIONING_POLICIES`` (the registry is pinned to the paper's
five names); instantiate them directly.  The kernel-equivalence
property tests and ``benchmarks/bench_scaling.py`` assert the optimized
policies produce byte-identical schedules (same VM windows, task order,
timing and cost) and measure the speedup (see DESIGN.md §9).

``AllPar1LnSScan`` and ``AllPar1LnSDynScan`` are the same kind of
oracle for AllPar1LnS[Dyn]: each bin asks every builder VM of its
flavor whether it is reusable and when the bin could start there,
where the production schedulers keep one candidate pool per level
(``tests/core/test_allpar1lns_pool.py``).
"""

from __future__ import annotations

from collections import Counter
from typing import List, Optional

from repro.cloud.instance import SMALL, InstanceType
from repro.core.allocation.allpar1lns import (
    AllPar1LnSDynScheduler,
    AllPar1LnSScheduler,
    pack_level,
)
from repro.core.allocation.ranking import level_order
from repro.core.builder import BuilderVM, ScheduleBuilder
from repro.core.provisioning.base import ProvisioningPolicy

_EPS = 1e-9


class _AllParReferenceBase(ProvisioningPolicy):
    """AllPar[Not]Exceed via the full candidate rescan."""

    exceed_btu: bool = True

    def _free_vms_for_level(
        self, task_id: str, builder: ScheduleBuilder
    ) -> List[BuilderVM]:
        """Existing VMs not already hosting a task of *task_id*'s level
        and still alive when the task could start on them."""
        lvl = builder.level_of(task_id)
        return [
            vm
            for vm in builder.vms
            if not vm.empty
            and all(builder.level_of(t) != lvl for t in vm.order)
            and builder.is_reusable(task_id, vm)
        ]

    def _pick(
        self, task_id: str, builder: ScheduleBuilder, candidates: List[BuilderVM]
    ) -> Optional[BuilderVM]:
        if not candidates:
            return None
        pred_vm = builder.vm_of_largest_predecessor(task_id)
        if pred_vm is not None and pred_vm in candidates:
            return pred_vm
        return max(candidates, key=lambda vm: (vm.busy_seconds, -vm.id))

    def select_vm(self, task_id: str, builder: ScheduleBuilder) -> BuilderVM:
        if builder.level_size(task_id) > 1:
            candidates = self._free_vms_for_level(task_id, builder)
        else:
            pred_vm = builder.vm_of_largest_predecessor(task_id)
            candidates = (
                [pred_vm]
                if pred_vm is not None and builder.is_reusable(task_id, pred_vm)
                else []
            )
        if not self.exceed_btu:
            candidates = [
                vm for vm in candidates if builder.fits_in_btu(task_id, vm)
            ]
        chosen = self._pick(task_id, builder, candidates)
        return chosen if chosen is not None else builder.new_vm()


class AllParNotExceedReference(_AllParReferenceBase):
    name = "AllParNotExceedReference"
    exceed_btu = False


class AllParExceedReference(_AllParReferenceBase):
    name = "AllParExceedReference"
    exceed_btu = True


class _StartParReferenceBase(ProvisioningPolicy):
    """StartPar[Not]Exceed via the full fleet refilter/resort."""

    exceed_btu: bool = True

    def select_vm(self, task_id: str, builder: ScheduleBuilder) -> BuilderVM:
        if builder.is_entry(task_id):
            return builder.new_vm()
        alive = [
            vm
            for vm in builder.vms
            if not vm.empty and builder.is_reusable(task_id, vm)
        ]
        if not alive:
            return builder.new_vm()
        target = max(alive, key=lambda vm: (vm.busy_seconds, -vm.id))
        if self.exceed_btu or builder.fits_in_btu(task_id, target):
            return target
        return builder.new_vm()


class StartParNotExceedReference(_StartParReferenceBase):
    name = "StartParNotExceedReference"
    exceed_btu = False


class StartParExceedReference(_StartParReferenceBase):
    name = "StartParExceedReference"
    exceed_btu = True


class OneVMperTaskReference(ProvisioningPolicy):
    """OneVMperTask is already O(1) per placement; the alias exists so
    every optimized policy has a same-shaped oracle."""

    name = "OneVMperTaskReference"

    def select_vm(self, task_id: str, builder: ScheduleBuilder) -> BuilderVM:
        return builder.new_vm()


#: optimized registry name -> reference class, for the equivalence tests
REFERENCE_POLICIES = {
    "OneVMperTask": OneVMperTaskReference,
    "StartParNotExceed": StartParNotExceedReference,
    "StartParExceed": StartParExceedReference,
    "AllParNotExceed": AllParNotExceedReference,
    "AllParExceed": AllParExceedReference,
}


class _AllPar1LnSScanBase:
    """AllPar1LnS[Dyn]'s placement loop with the full per-bin VM scan.

    ``seen`` tallies, per run, the cases a bin met: ``rent`` (no VM
    fits), ``pred`` (the largest predecessor's VM taken), ``pool``
    (another VM taken), ``claimed`` (a VM of the bin's flavor already
    taken by its level), ``expired`` (an unclaimed one whose paid
    horizon passes before the bin's first task could start there) and
    ``pred_host`` (an unclaimed one hosting a predecessor of the bin's
    first task other than the largest).
    """

    def _choose_vm(
        self,
        builder: ScheduleBuilder,
        bin_tasks: List[str],
        itype: InstanceType,
        used_this_level: List[BuilderVM],
    ) -> BuilderVM:
        """Pick a VM for a whole bin, AllParNotExceed style: reuse an
        idle VM of the right flavor not already claimed by this level and
        whose remaining BTU absorbs the full bin, else rent.

        Levels are placed one after another, so every VM hosting a task
        of this level is already in *used_this_level*; membership is by
        identity (``BuilderVM`` equality compares every field)."""
        bin_exec = sum(builder.exec_time(t, itype) for t in bin_tasks)
        candidates = [
            vm
            for vm in builder.vms
            if not vm.empty
            and vm.itype is itype
            and not any(vm is u for u in used_this_level)
            and builder.is_reusable(bin_tasks[0], vm)
        ]
        billing = builder.platform.billing
        fitting = []
        for vm in candidates:
            start = builder.earliest_start(bin_tasks[0], vm)
            horizon = vm.start_time + billing.paid_seconds(vm.uptime_seconds)
            if start + bin_exec <= horizon + _EPS:
                fitting.append(vm)
        pred_vm = builder.vm_of_largest_predecessor(bin_tasks[0])
        if pred_vm is not None and any(pred_vm is vm for vm in fitting):
            return pred_vm
        if fitting:
            return max(fitting, key=lambda vm: (vm.busy_seconds, -vm.id))
        return builder.new_vm(itype)

    def _observe(self, builder, bin_tasks, itype, used, chosen) -> None:
        head = bin_tasks[0]
        pred_vm = builder.vm_of_largest_predecessor(head)
        hosts = {id(builder.task_vm[p]) for p in builder.workflow.predecessors(head)}
        for vm in builder.vms:
            if vm.empty or vm is chosen or vm.itype is not itype:
                continue
            if any(vm is u for u in used):
                self.seen["claimed"] += 1
            elif not builder.is_reusable(head, vm):
                self.seen["expired"] += 1
            elif id(vm) in hosts and vm is not pred_vm:
                self.seen["pred_host"] += 1
        if chosen.empty:
            self.seen["rent"] += 1
        elif chosen is pred_vm:
            self.seen["pred"] += 1
        else:
            self.seen["pool"] += 1

    def schedule(self, workflow, platform, *, itype=SMALL, region=None):
        workflow.validate()
        self.seen = Counter()
        reg = region or platform.default_region
        builder = ScheduleBuilder(workflow, platform, itype, reg)
        levels = level_order(workflow, platform, itype)
        for level_tasks in levels:
            bins = pack_level(
                level_tasks, lambda t: platform.runtime(workflow.task(t), itype)
            )
            types = self._bin_types(workflow, platform, reg, bins, itype)
            used: List[BuilderVM] = []
            for bin_tasks, bin_type in zip(bins, types):
                vm = self._choose_vm(builder, bin_tasks, bin_type, used)
                self._observe(builder, bin_tasks, bin_type, used, vm)
                used.append(vm)
                for tid in bin_tasks:
                    if not vm.empty and not builder.is_reusable(tid, vm):
                        vm = builder.new_vm(bin_type)
                        used.append(vm)
                    builder.place(tid, vm)
        return builder.build(algorithm=self.name, provisioning="AllParNotExceed")


class AllPar1LnSScan(_AllPar1LnSScanBase, AllPar1LnSScheduler):
    """AllPar1LnS with the full per-bin VM scan."""


class AllPar1LnSDynScan(_AllPar1LnSScanBase, AllPar1LnSDynScheduler):
    """AllPar1LnSDyn with the full per-bin VM scan."""
