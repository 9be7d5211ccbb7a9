"""StartPar[Not]Exceed: parallelism only for the workflow's *initial*
tasks (paper Sect. III-A).

Every entry task gets its own VM; every other task is packed, in
allocation order, onto "the VM with the largest execution time".  The
*NotExceed* variant rents a fresh VM instead when the task would push
that VM past its currently-paid BTUs; the *Exceed* variant never rents
for that reason — so a workflow with a single entry task ends up
entirely serialized on one VM (the paper's CSTEM remark).

Implementation: stock runs take the fused HEFT kernel
(:mod:`repro.kernels.provision`); this ``select_vm`` serves the builder
path (fault replans, scheduler subclasses).  It makes one running-max
scan (:meth:`~repro.core.builder.ScheduleBuilder.busiest_vm`) and asks
the reuse test only of a VM busier than the best so far.
``StartParExceedReference`` in ``tests/oracles/provisioning_scan.py``
filters the whole fleet first and is the oracle the property tests
compare against, schedule for schedule.
"""

from __future__ import annotations

from repro.core.builder import BuilderVM, ScheduleBuilder
from repro.core.provisioning.base import ProvisioningPolicy, register_policy


class _StartParBase(ProvisioningPolicy):
    exceed_btu: bool = True

    def select_vm(self, task_id: str, builder: ScheduleBuilder) -> BuilderVM:
        metrics = builder.metrics
        if builder.is_entry(task_id):
            if metrics is not None:
                metrics.inc("provision.rent")
            return builder.new_vm()
        # Only VMs still alive when the task could start are reusable:
        # idle VMs are deprovisioned at their BTU boundary.
        target = builder.busiest_vm(lambda vm: builder.is_reusable(task_id, vm))
        if target is None:
            if metrics is not None:
                metrics.inc("provision.rent")
            return builder.new_vm()
        if self.exceed_btu or builder.fits_in_btu(task_id, target):
            if metrics is not None:
                metrics.inc("provision.reuse_pool")
            return target
        if metrics is not None:
            metrics.inc("provision.rent")
        return builder.new_vm()


@register_policy
class StartParNotExceed(_StartParBase):
    name = "StartParNotExceed"
    exceed_btu = False


@register_policy
class StartParExceed(_StartParBase):
    name = "StartParExceed"
    exceed_btu = True
