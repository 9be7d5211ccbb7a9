"""Size-aware dispatch between the indexed and columnar kernels.

The columnar kernels pay fixed vectorization overhead (CSR construction,
array allocation) that only amortizes on large DAGs, and their dispatch
sites promise *byte-identical* behavior — so the rule is deliberately
conservative:

* **size**: only workflows with at least :data:`COLUMNAR_MIN_TASKS`
  tasks dispatch (the 1k benchmark cells stay on the indexed kernels,
  10k+ go columnar; the crossover measured on this container is well
  below the threshold, so the margin is safety, not tuning);
* **model types**: the fused kernels inline the billing/network/runtime
  arithmetic, so they only engage for the stock ``BillingModel`` /
  ``NetworkModel`` / ``InstanceType`` classes — any subclass falls back
  to the indexed kernels, which go through the real objects.

Tests force either side with :func:`force_columnar` /
:func:`columnar_disabled`.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager

from repro.cloud.billing import BillingModel
from repro.cloud.instance import InstanceType
from repro.cloud.network import NetworkModel

#: minimum task count for the columnar kernels to engage
COLUMNAR_MIN_TASKS = 4096

_DISABLED = sys.maxsize

#: scoped override set by :func:`use_columnar` (None = COLUMNAR_MIN_TASKS)
_override: "int | None" = None


def columnar_threshold() -> int:
    """Effective task-count threshold for columnar dispatch."""
    if _override is not None:
        return _override
    return COLUMNAR_MIN_TASKS


def columnar_active(n_tasks: int) -> bool:
    """Whether a workflow of *n_tasks* takes the columnar path."""
    return n_tasks >= columnar_threshold()


@contextmanager
def use_columnar(min_tasks: int):
    """Scoped threshold override (the test hook)."""
    global _override
    prev = _override
    _override = int(min_tasks)
    try:
        yield
    finally:
        _override = prev


def force_columnar():
    """Scoped: columnar kernels on every workflow, regardless of size."""
    return use_columnar(0)


def columnar_disabled():
    """Scoped: indexed kernels everywhere (the reference side of the
    columnar equivalence property tests)."""
    return use_columnar(_DISABLED)


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
