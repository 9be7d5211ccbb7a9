"""Columnar event-advance replay for the single-region no-fault verify.

``run_strategy(verify=True)`` replays every schedule through the
discrete-event simulator purely to assert the observed timings equal the
plan — the :class:`~repro.simulator.trace.SimulationResult` is
discarded.  For that case the DES is a very expensive fixed point: with
no faults, the observed start of a task is exactly

    ``max(finish of its VM-queue predecessor,
          max over DAG predecessors (finish + transfer))``

so the whole replay collapses to one recurrence sweep over the combined
(queue + DAG) precedence graph.  :func:`replay_verify` runs that sweep
and applies the same divergence tolerances as
:meth:`SimulationResult.check_against`.

Fleets may mix flavors (the CPA-Eager, GAIN and AllPar1LnSDyn plans):
each task runs ``work / speedup`` of its own VM's flavor, and each
cross-VM edge pays ``platform.transfer_time(gb, src_flavor,
dst_flavor)`` — the bottleneck of the two links — exactly as the DES
charges them.

Eligibility is strict — anything the recurrence does not model falls
back to the real DES (return ``False``):

* a tracer that would record spans, or an active metrics registry (the
  DES emits ``sim.*``/``executor.*`` counters the sweep cannot fake),
* fleets spread over several regions,
* cold boots (``prebooted=False`` with a nonzero boot time),
* spot markets (priced and interrupted through the DES fault machinery),
* non-stock platform models or flavors.

There is no size gate: the recurrence is exact at any size, and its
fixed numpy cost (building the CSR arrays once per workflow) is a
fraction of one DES run even on the paper's 20-task workflows.
"""

from __future__ import annotations

import numpy as np

from repro.cloud.instance import InstanceType
from repro.core.schedule import Schedule
from repro.errors import SimulationError
from repro.kernels.columnar import (
    get_columnar,
    pred_lists,
    succ_lists,
    transfer_seconds,
)
from repro.kernels.dispatch import platform_eligible
from repro.obs.metrics import current as current_metrics

__all__ = ["replay_verify"]

_EPS = 1e-6


def _eligible(schedule: Schedule, tracer) -> bool:
    if tracer is not None and getattr(tracer, "enabled", True):
        return False
    if current_metrics() is not None:
        return False
    itypes = schedule._vm_itype
    if not itypes:
        return False
    platform = schedule.platform
    if not platform_eligible(platform, itypes[0]):
        return False
    if not platform.prebooted and platform.boot_seconds > 0:
        return False
    if getattr(platform, "market", None) is not None:
        # market runs are priced/interrupted through the DES fault
        # machinery; the columnar recurrence cannot replay them
        return False
    # stock flavors and one region: judged once per distinct object
    for other in {id(x): x for x in itypes}.values():
        if type(other) is not InstanceType:
            return False
    regions = {id(r): r for r in schedule._vm_region}.values()
    return len({r.name for r in regions}) == 1


def _costs(schedule: Schedule, cd) -> tuple:
    """Per-task runtimes on each task's own VM flavor, and per-edge
    (predecessor CSR order) cross-VM transfer times between the two
    endpoint flavors — ``platform.runtime``/``platform.transfer_time``
    elementwise, the DES's operands.  A uniform fleet gets the same
    values as the single-flavor formulas: ``min(link, link) == link``."""
    itypes = schedule._vm_itype
    tvm = np.asarray(schedule._tvm, dtype=np.int64)
    speed = np.array([x.speedup for x in itypes])[tvm]
    link = np.array([x.link_gbps for x in itypes])[tvm]
    dst = np.repeat(np.arange(cd.n, dtype=np.int64), np.diff(cd.pred_ptr))
    bw = np.minimum(link[cd.pred_idx], link[dst])
    lat = schedule.platform.network.intra_region_latency_s
    return (cd.works / speed).tolist(), transfer_seconds(cd.pred_gb, lat, bw).tolist()


def replay_verify(schedule: Schedule, tracer=None) -> bool:
    """Verify *schedule* by recurrence replay when eligible.

    Returns ``True`` after a successful verification (byte-identical to
    what the DES would observe — same single additions and ``max``
    folds, checked against the plan with ``check_against``'s
    tolerances), ``False`` when the schedule needs the real DES.
    Raises :class:`SimulationError` on divergence, like the DES path.
    Reads only the schedule's columns, never its VM/Placement views.
    """
    if not _eligible(schedule, tracer):
        return False
    got_s, got_f = _replay(schedule)
    if got_s == schedule._start and got_f == schedule._end:
        return True  # the usual case: the plan, to the bit
    # the DES's ``check_against`` tolerances, elementwise; the first
    # offender in task order is reported, its start before its finish
    ids = schedule._ids
    planned_s = np.asarray(schedule._start)
    planned_f = np.asarray(schedule._end)
    gs = np.asarray(got_s)
    gf = np.asarray(got_f)
    bad_s = np.abs(gs - planned_s) > _EPS * np.maximum(1.0, planned_s)
    bad_f = np.abs(gf - planned_f) > _EPS * np.maximum(1.0, planned_f)
    bad = np.flatnonzero(bad_s | bad_f)
    if bad.size:
        t = int(bad[0])
        if bad_s[t]:
            raise SimulationError(
                f"{ids[t]!r}: simulated start {got_s[t]:.6f} != "
                f"planned {schedule._start[t]:.6f}"
            )
        raise SimulationError(
            f"{ids[t]!r}: simulated finish {got_f[t]:.6f} != "
            f"planned {schedule._end[t]:.6f}"
        )
    return True


def _replay(schedule: Schedule) -> tuple:
    """``(start, finish)`` lists over the task index: what a no-fault
    execution of the eligible *schedule* observes.  Raises
    :class:`SimulationError` when a VM's queue order deadlocks against
    the DAG."""
    wf = schedule.workflow
    cd = get_columnar(wf)
    n = cd.n
    runt, rtr = _costs(schedule, cd)
    pp, pi = pred_lists(wf)
    sp, si = succ_lists(wf)

    # VM queues in placement order — the DES executes each VM's queue
    # front-to-back, so a task also waits on its queue predecessor
    tvm = schedule._tvm
    seq = schedule._vm_seq
    vm_ptr = schedule._vm_ptr
    qprev = [-1] * n
    qnext = [-1] * n
    for a, b in zip(vm_ptr, vm_ptr[1:]):
        if b - a > 1:
            row = seq[a:b]
            for before, after in zip(row, row[1:]):
                qprev[after] = before
                qnext[before] = after

    indeg = [pp[t + 1] - pp[t] + (qprev[t] != -1) for t in range(n)]
    stack = [t for t in range(n) if indeg[t] == 0]
    got_s = [0.0] * n
    got_f = [0.0] * n
    done = 0
    while stack:
        t = stack.pop()
        q = qprev[t]
        best = got_f[q] if q != -1 else 0.0
        v = tvm[t]
        for e in range(pp[t], pp[t + 1]):
            p = pi[e]
            cand = got_f[p] if tvm[p] == v else got_f[p] + rtr[e]
            if cand > best:
                best = cand
        got_s[t] = best
        f = best + runt[t]
        got_f[t] = f
        done += 1
        nt = qnext[t]
        if nt != -1:
            indeg[nt] -= 1
            if indeg[nt] == 0:
                stack.append(nt)
        for e in range(sp[t], sp[t + 1]):
            s = si[e]
            indeg[s] -= 1
            if indeg[s] == 0:
                stack.append(s)
    if done != n:  # queue order conflicts with the DAG: deadlock
        missing = cd.ids[next(t for t in range(n) if indeg[t] > 0)]
        raise SimulationError(f"task {missing!r} never completed in simulation")
    return got_s, got_f
