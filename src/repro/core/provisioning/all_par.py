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

Implementation: stock runs take the fused level kernel
(:mod:`repro.kernels.provision`); this ``select_vm`` serves the builder
path (fault replans, scheduler subclasses).  It makes one running-max
scan (:meth:`~repro.core.builder.ScheduleBuilder.busiest_vm`) and asks
the level, reuse and fit tests only of a VM busier than the best so
far.  ``AllParExceedReference`` in ``tests/oracles/provisioning_scan.py``
filters every candidate first and is the oracle the property tests
compare against, schedule for schedule.
"""

from __future__ import annotations

from repro.core.builder import BuilderVM, ScheduleBuilder
from repro.core.provisioning.base import ProvisioningPolicy, register_policy


class _AllParBase(ProvisioningPolicy):
    exceed_btu: bool = True

    def select_vm(self, task_id: str, builder: ScheduleBuilder) -> BuilderVM:
        require_fit = not self.exceed_btu
        lvl = builder.level_of(task_id)
        metrics = builder.metrics

        def accept(vm: BuilderVM) -> bool:
            # free of this level, alive when the task could start, and
            # (NotExceed) within the BTUs it has already paid for
            return (
                not builder.hosts_level(vm, lvl)
                and builder.is_reusable(task_id, vm)
                and (not require_fit or builder.fits_in_btu(task_id, vm))
            )

        # The largest predecessor's VM first.  A replan's crashed VM
        # survives only as a ghost the builder does not own: rent
        # instead of placing on it.
        pred_vm = builder.vm_of_largest_predecessor(task_id)
        if pred_vm is not None and builder.owns(pred_vm) and accept(pred_vm):
            if metrics is not None:
                metrics.inc("provision.reuse_pred")
            return pred_vm
        # A parallel task then takes the busiest accepted VM; a
        # sequential one rents.
        if builder.level_size(task_id) > 1:
            chosen = builder.busiest_vm(accept)
            if chosen is not None:
                if metrics is not None:
                    metrics.inc("provision.reuse_pool")
                return chosen
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
