"""The paper's five VM provisioning policies (Sect. III-A)."""

from repro.core.provisioning.base import (
    ProvisioningPolicy,
    provisioning_policy,
    PROVISIONING_POLICIES,
)
from repro.core.provisioning.one_vm_per_task import OneVMperTask
from repro.core.provisioning.start_par import StartParNotExceed, StartParExceed
from repro.core.provisioning.all_par import AllParNotExceed, AllParExceed

__all__ = [
    "ProvisioningPolicy",
    "provisioning_policy",
    "PROVISIONING_POLICIES",
    "OneVMperTask",
    "StartParNotExceed",
    "StartParExceed",
    "AllParNotExceed",
    "AllParExceed",
]
