"""OneVMperTask: a fresh VM for every task, "even if there remains
enough idle time on another that could be used by the ready task".

This is the paper's reference policy (with small instances), the
makespan-oriented extreme: maximum parallel capacity, maximum rent cost
and — because every VM pays at least one full BTU — the largest total
idle time.

Already O(1) per placement, so unlike its siblings it needed no index
rewrite; ``OneVMperTaskReference`` in ``tests/oracles/provisioning_scan.py``
exists only so every policy has a same-shaped equivalence oracle.
"""

from __future__ import annotations

from repro.core.builder import BuilderVM, ScheduleBuilder
from repro.core.provisioning.base import ProvisioningPolicy, register_policy


@register_policy
class OneVMperTask(ProvisioningPolicy):
    name = "OneVMperTask"

    def select_vm(self, task_id: str, builder: ScheduleBuilder) -> BuilderVM:
        if builder.metrics is not None:
            builder.metrics.inc("provision.rent")
        return builder.new_vm()
