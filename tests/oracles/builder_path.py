"""The stock schedulers pinned to the ``ScheduleBuilder`` path.

``HeftScheduler`` and ``LevelScheduler`` hand stock policies on stock
models to the fused columnar kernels, and they check exact types to do
so: any subclass places through the builder instead.  These subclasses
change nothing else, so a schedule they produce is the builder side of
the fused-kernel equivalence tests (``tests/core/test_kernel_equivalence.py``,
``test_level_pool.py``, ``test_schedule_columns.py``), of the
reference comparisons under both allocation orders in
``test_kernel_equivalence.py``, and of ``benchmarks/bench_scaling.py``'s
50k identity check.
"""

from __future__ import annotations

from repro.core.allocation import HeftScheduler, LevelScheduler


class BuilderHeft(HeftScheduler):
    """:class:`HeftScheduler` on the builder path."""


class BuilderLevel(LevelScheduler):
    """:class:`LevelScheduler` on the builder path."""
