"""AllPar[Not]Exceed: full task-level parallelism (paper Sect. III-A).

Every *parallel* task — a task whose DAG level holds more than one task
— runs on its own VM: an existing VM not already claimed by a task of
the same level when one is free, a new rental otherwise.  *Sequential*
tasks (singleton levels) run on the VM of their largest predecessor,
keeping chains on one machine and costs down.  The *NotExceed* variant
additionally rents a new VM whenever the candidate's remaining BTU
cannot absorb the task; *Exceed* never rents for that reason.

Per the paper, renting one single-core VM per parallel task instead of a
multi-core VM is cost-neutral under EC2's cost-per-core pricing; only
global idle time differs.

Implementation: the historical kernel rescanned every VM's full task
list per placement (O(V·tasks) — see ``AllParExceedReference`` in
``tests/oracles/provisioning_scan.py``, the preserved oracle).  This version runs against the
:class:`~repro.core.builder.ScheduleBuilder` indexes — the per-level
candidate pool and per-VM level sets — for O(log V) amortized
placements; the property tests assert the schedules are byte-identical.
"""

from __future__ import annotations

from repro.core.builder import BuilderVM, ScheduleBuilder
from repro.core.provisioning.base import ProvisioningPolicy, register_policy


class _AllParBase(ProvisioningPolicy):
    exceed_btu: bool = True

    def select_vm(self, task_id: str, builder: ScheduleBuilder) -> BuilderVM:
        require_fit = not self.exceed_btu
        metrics = builder.metrics
        if builder.level_size(task_id) > 1:
            # Parallel task: prefer the largest predecessor's VM when it
            # is a candidate, else the busiest candidate from the
            # level pool, else rent.
            pred_vm = builder.vm_of_largest_predecessor(task_id)
            if pred_vm is not None and builder.qualifies_for_level(
                task_id, pred_vm, require_fit
            ):
                if metrics is not None:
                    metrics.inc("provision.reuse_pred")
                return pred_vm
            chosen = builder.best_level_candidate(task_id, require_fit)
            if chosen is not None:
                if metrics is not None:
                    metrics.inc("provision.reuse_pool")
                return chosen
            if metrics is not None:
                metrics.inc("provision.rent")
            return builder.new_vm()
        # Sequential task: its largest predecessor's VM or a rental.  A
        # replan's crashed VM survives only as a ghost (empty, so always
        # "reusable"): rent instead of placing on it.
        pred_vm = builder.vm_of_largest_predecessor(task_id)
        if (
            pred_vm is not None
            and builder.owns(pred_vm)
            and builder.is_reusable(task_id, pred_vm)
            and (not require_fit or builder.fits_in_btu(task_id, pred_vm))
        ):
            if metrics is not None:
                metrics.inc("provision.reuse_pred")
            return pred_vm
        if metrics is not None:
            metrics.inc("provision.rent")
        return builder.new_vm()


@register_policy
class AllParNotExceed(_AllParBase):
    name = "AllParNotExceed"
    exceed_btu = False


@register_policy
class AllParExceed(_AllParBase):
    name = "AllParExceed"
    exceed_btu = True
