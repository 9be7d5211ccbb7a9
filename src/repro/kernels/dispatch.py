"""Dispatch between the fused columnar kernels and the indexed builder.

The fused kernels inline the billing/network/runtime arithmetic, so
they only engage for the stock ``BillingModel`` / ``NetworkModel`` /
``InstanceType`` classes — any subclass falls back to the indexed
kernels, which go through the real objects.  Workflow size plays no
part: the fused kernels are byte-identical to the builder at every
size (property-tested in ``tests/core/test_kernel_equivalence.py``).
"""

from __future__ import annotations

from repro.cloud.billing import BillingModel
from repro.cloud.instance import InstanceType
from repro.cloud.network import NetworkModel


def platform_eligible(platform, itype) -> bool:
    """Whether the fused kernels may inline *platform*'s arithmetic.

    Exact-type checks: a subclassed billing/network/instance model could
    override the formulas the kernels inline, so anything non-stock
    falls back to the indexed kernels.
    """
    return (
        type(itype) is InstanceType
        and type(platform.billing) is BillingModel
        and type(platform.network) is NetworkModel
    )
