"""Straightforward (pre-indexed) provisioning kernels, kept as oracles.

These classes are the original full-scan implementations of the paper's
five policies, before the production versions in ``all_par.py`` /
``start_par.py`` were rewritten against the :class:`ScheduleBuilder`
indexes: ``AllPar*Reference`` walks every VM's complete task list per
placement (O(V·tasks)), ``StartPar*Reference`` re-filters and re-sorts
the whole fleet per task.  Obviously correct, hopelessly quadratic.

They live with the tests, outside the package, and are not registered
in ``PROVISIONING_POLICIES`` (the registry is pinned to the paper's
five names); instantiate them directly.  The kernel-equivalence
property tests and ``benchmarks/bench_scaling.py`` assert the optimized
policies produce byte-identical schedules (same VM windows, task order,
timing and cost) and measure the speedup (see DESIGN.md §9).
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.builder import BuilderVM, ScheduleBuilder
from repro.core.provisioning.base import ProvisioningPolicy


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
        target = builder.busiest_vm(alive)
        if target is None:
            return builder.new_vm()
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
