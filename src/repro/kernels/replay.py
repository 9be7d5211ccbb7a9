"""Fixed-point certificate for the single-region no-fault verify.

``run_strategy(verify=True)`` checks that executing a schedule
reproduces its planned timings.  With no faults, a task starts at

    ``max(0, finish of its VM-queue predecessor,
          max over DAG predecessors (finish + transfer))``

and finishes ``runtime`` later.  On an acyclic combined (DAG + VM-queue)
graph this recurrence has exactly one solution, so :func:`replay_verify`
does not compute it; it checks that the plan's columns *are* it:

1. every planned start equals the right-hand side evaluated on the
   planned finishes, to the bit;
2. every planned finish equals its start plus its runtime, to the bit;
3. starts strictly increase along every DAG and every VM-queue edge.

(3) rules out a cycle (starts would increase all the way round it), so
the graph has a topological order, and induction along it shows that the
execution observes every planned start and finish.  Each check is a
whole-array numpy expression (gathers, ``np.maximum.reduceat`` over the
predecessor CSR, exact ``==``): ``max`` returns one of its operands and
each candidate is the DES's own single addition, so no per-task loop and
no tolerance is needed.  A failed check is not a verdict (a zero-length
task breaks (3) on a sound plan): :func:`replay_verify` returns
``False`` and the caller runs the DES, which accepts the plan or
reports its first divergence or deadlock.

Fleets may mix flavors (the CPA-Eager, GAIN and AllPar1LnSDyn plans):
each task runs ``work / speedup`` of its own VM's flavor, and each
cross-VM edge pays the bottleneck of the two links, as the DES charges
(:func:`~repro.kernels.columnar.fleet_costs`).  It reads the schedule's
plan view, the same arrays its check and its pricing read.

Anything the recurrence does not model goes to the DES (``False``): a
tracer that records spans or an active metrics registry (the DES emits
``sim.*``/``executor.*`` counters), multi-region fleets, cold boots and
spot markets.  There is no size gate: the certificate is exact at any
size.
"""

from __future__ import annotations

import numpy as np

from repro.core.schedule import Schedule
from repro.kernels.columnar import get_columnar
from repro.obs.metrics import current as current_metrics

__all__ = ["replay_verify"]


def _eligible(schedule: Schedule, tracer) -> bool:
    """Whether the recurrence models *schedule*'s run, region aside."""
    if tracer is not None and getattr(tracer, "enabled", True):
        return False
    if current_metrics() is not None:
        return False
    platform = schedule.platform
    if not platform.prebooted and platform.boot_seconds > 0:
        return False
    # market runs are priced/interrupted through the DES fault
    # machinery; the recurrence cannot model them
    return getattr(platform, "market", None) is None


def replay_verify(schedule: Schedule, tracer=None) -> bool:
    """Certify that a no-fault execution of *schedule* observes its
    planned timings, bit for bit.

    ``True`` when the plan's columns are the execution's fixed point
    (see the module docstring); ``False`` when the schedule is outside
    the certificate's model or a check fails — the caller then runs the
    DES, which judges it.  Never raises on a bad plan.  Reads only the
    schedule's columns, never its VM/Placement views.
    """
    if not _eligible(schedule, tracer):
        return False
    view = schedule._plan_view()
    start, finish, seq, runt = view.start, view.end, view.seq, view.runt
    if view.zone is not None:
        return False
    if not np.array_equal(start + runt, finish):
        return False

    # VM-queue edges: each VM runs its queue front to back, so every
    # task but a queue's head waits on the task placed before it
    head = np.zeros(seq.size + 1, dtype=bool)
    head[view.ptr] = True
    pos = np.flatnonzero(~head[:-1])
    before, after = seq[pos - 1], seq[pos]
    cd = get_columnar(schedule.workflow)
    ready = np.zeros(cd.n, dtype=np.float64)
    ready[after] = finish[before]

    # DAG edges: the latest data arrival, each edge paying its transfer
    # (zero on one VM) after the predecessor's finish
    src, dst = cd.pred_idx, cd.pred_dst
    arrive = finish[src] + view.moved
    waits = dst[cd.pred_rows]
    ready[waits] = np.maximum(ready[waits], np.maximum.reduceat(arrive, cd.pred_rows))
    return (
        np.array_equal(ready, start)
        and bool((start[before] < start[after]).all())
        and bool((start[src] < start[dst]).all())
    )
