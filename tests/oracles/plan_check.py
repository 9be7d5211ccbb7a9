"""The per-VM, per-edge feasibility loop, kept as the oracle.

This is ``Schedule.validate``'s body from before the plan check became
one whole-array pass: it refuses a non-finite start or finish (which
the loop itself let through: every comparison is false on NaN), then
walks the VMs in order (overlaps in start
order, then durations through ``platform.runtime``) and then the edges
in ``Workflow.edges()`` order through ``platform.transfer_time``.  The
array check must accept and reject the same plans with the same first
message (``tests/core/test_plan_check.py``).
"""

from __future__ import annotations

import math

from repro.errors import InvalidScheduleError

_EPS = 1e-6


def validate_reference(schedule) -> None:
    """Raise :class:`InvalidScheduleError` on the first infeasibility
    of *schedule*; return ``None`` on a feasible plan."""
    ids = schedule._ids
    start = schedule._start
    end = schedule._end
    seq = schedule._vm_seq
    ptr = schedule._vm_ptr
    itypes = schedule._vm_itype
    regions = schedule._vm_region
    runtime = schedule.platform.runtime
    task = schedule.workflow.task
    for t, (s, e) in enumerate(zip(start, end)):
        if not (math.isfinite(s) and math.isfinite(e)):
            raise InvalidScheduleError(f"{ids[t]!r} runs from {s} to {e}: not a finite time")
    for v, (a, b) in enumerate(zip(ptr, ptr[1:])):
        row = seq[a:b]
        itype = itypes[v]
        ordered = sorted(row, key=start.__getitem__)
        for x, y in zip(ordered, ordered[1:]):
            if end[x] > start[y] + _EPS:
                raise InvalidScheduleError(
                    f"{schedule.vms[v].name}: {ids[x]!r} and {ids[y]!r} overlap"
                )
        for t in row:
            expect = runtime(task(ids[t]), itype)
            duration = end[t] - start[t]
            if abs(duration - expect) > _EPS * max(1.0, expect):
                raise InvalidScheduleError(
                    f"{schedule.vms[v].name}: {ids[t]!r} runs {duration:.6f}s, "
                    f"expected {expect:.6f}s on {itype.name}"
                )
    index = schedule._index
    tvm = schedule._tvm
    transfer_time = schedule.platform.transfer_time
    for u, v, gb in schedule.workflow.edges():
        a, b = index[u], index[v]
        src, dst = tvm[a], tvm[b]
        dt = transfer_time(
            gb,
            itypes[src],
            itypes[dst],
            same_vm=src == dst,
            src_region=regions[src],
            dst_region=regions[dst],
        )
        if start[b] + _EPS < end[a] + dt:
            raise InvalidScheduleError(
                f"dependency violated: {v!r} starts at {start[b]:.3f} "
                f"but {u!r} finishes at {end[a]:.3f} + "
                f"transfer {dt:.3f}"
            )
