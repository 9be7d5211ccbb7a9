"""StartPar[Not]Exceed: parallelism only for the workflow's *initial*
tasks (paper Sect. III-A).

Every entry task gets its own VM; every other task is packed, in
allocation order, onto "the VM with the largest execution time".  The
*NotExceed* variant rents a fresh VM instead when the task would push
that VM past its currently-paid BTUs; the *Exceed* variant never rents
for that reason — so a workflow with a single entry task ends up
entirely serialized on one VM (the paper's CSTEM remark).

Implementation: the historical kernel re-filtered and re-sorted the
whole fleet per task (see ``StartParExceedReference`` in
``tests/oracles/provisioning_scan.py``, the preserved oracle); this version reads the builder's busy-seconds
heap — O(log V) amortized per placement, byte-identical schedules
(property-tested).
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
        target = builder.busiest_reusable(task_id)
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
