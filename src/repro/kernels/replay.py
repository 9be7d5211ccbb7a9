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
cross-VM edge pays ``platform.transfer_time(gb, src_flavor,
dst_flavor)`` — the bottleneck of the two links — as the DES charges.

Anything the recurrence does not model goes to the DES (``False``): a
tracer that records spans or an active metrics registry (the DES emits
``sim.*``/``executor.*`` counters), multi-region fleets, cold boots,
spot markets, and non-stock platform models or flavors.  There is no
size gate: the certificate is exact at any size.
"""

from __future__ import annotations

import numpy as np

from repro.cloud.instance import InstanceType
from repro.core.schedule import Schedule
from repro.kernels.columnar import get_columnar, transfer_seconds
from repro.kernels.dispatch import platform_eligible
from repro.obs.metrics import current as current_metrics

__all__ = ["replay_verify"]


def _eligible(schedule: Schedule, tracer):
    """The fleet's distinct flavors, keyed by ``id``, when the
    certificate models *schedule*, else ``None``."""
    if tracer is not None and getattr(tracer, "enabled", True):
        return None
    if current_metrics() is not None:
        return None
    itypes = schedule._vm_itype
    if not itypes:
        return None
    platform = schedule.platform
    if not platform_eligible(platform, itypes[0]):
        return None
    if not platform.prebooted and platform.boot_seconds > 0:
        return None
    if getattr(platform, "market", None) is not None:
        # market runs are priced/interrupted through the DES fault
        # machinery; the recurrence cannot model them
        return None
    # stock flavors and one region
    flavors = {id(x): x for x in itypes}
    if any(type(x) is not InstanceType for x in flavors.values()):
        return None
    if len({r.name for r in schedule._vm_region}) != 1:
        return None
    return flavors


def _costs(schedule: Schedule, cd, flavors: dict, tvm: np.ndarray) -> tuple:
    """Per-task runtimes on each task's VM flavor and per-edge (pred CSR
    order) cross-VM transfer times at the endpoints' bottleneck link: the
    DES's operands.  A uniform fleet gets its own flavor's values, since
    ``min(link, link) == link``."""
    slot = {key: k for k, key in enumerate(flavors)}
    itypes = schedule._vm_itype
    vm_kind = np.fromiter(map(slot.__getitem__, map(id, itypes)), np.int64, len(itypes))
    kind = vm_kind[tvm]
    speed = np.array([x.speedup for x in flavors.values()])[kind]
    link = np.array([x.link_gbps for x in flavors.values()])[kind]
    bw = np.minimum(link[cd.pred_idx], link[cd.pred_dst])
    lat = schedule.platform.network.intra_region_latency_s
    return cd.works / speed, transfer_seconds(cd.pred_gb, lat, bw)


def replay_verify(schedule: Schedule, tracer=None) -> bool:
    """Certify that a no-fault execution of *schedule* observes its
    planned timings, bit for bit.

    ``True`` when the plan's columns are the execution's fixed point
    (see the module docstring); ``False`` when the schedule is outside
    the certificate's model or a check fails — the caller then runs the
    DES, which judges it.  Never raises on a bad plan.  Reads only the
    schedule's columns, never its VM/Placement views.
    """
    flavors = _eligible(schedule, tracer)
    if flavors is None:
        return False
    cd = get_columnar(schedule.workflow)
    tvm = np.asarray(schedule._tvm, dtype=np.int64)
    runt, rtr = _costs(schedule, cd, flavors, tvm)
    start = np.asarray(schedule._start, dtype=np.float64)
    finish = np.asarray(schedule._end, dtype=np.float64)
    if not np.array_equal(start + runt, finish):
        return False

    # VM-queue edges: each VM runs its queue front to back, so every
    # task but a queue's head waits on the task placed before it
    seq = np.asarray(schedule._vm_seq, dtype=np.int64)
    head = np.zeros(seq.size + 1, dtype=bool)
    head[schedule._vm_ptr] = True
    pos = np.flatnonzero(~head[:-1])
    before, after = seq[pos - 1], seq[pos]
    ready = np.zeros(cd.n, dtype=np.float64)
    ready[after] = finish[before]

    # DAG edges: the latest data arrival, a cross-VM edge paying its
    # transfer after the predecessor's finish
    src, dst = cd.pred_idx, cd.pred_dst
    arrive = finish[src]
    arrive = np.where(tvm[src] == tvm[dst], arrive, arrive + rtr)
    waits = dst[cd.pred_rows]
    ready[waits] = np.maximum(ready[waits], np.maximum.reduceat(arrive, cd.pred_rows))
    return (
        np.array_equal(ready, start)
        and bool((start[before] < start[after]).all())
        and bool((start[src] < start[dst]).all())
    )
