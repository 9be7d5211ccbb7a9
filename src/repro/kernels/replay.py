"""Columnar event-advance replay for the homogeneous no-fault verify.

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

Eligibility is strict — anything the recurrence does not model falls
back to the real DES (return ``False``):

* a tracer that would record spans, or an active metrics registry (the
  DES emits ``sim.*``/``executor.*`` counters the sweep cannot fake),
* heterogeneous fleets (mixed flavors or regions),
* cold boots (``prebooted=False`` with a nonzero boot time),
* spot markets (priced and interrupted through the DES fault machinery),
* non-stock platform models.

There is no size gate: the recurrence is exact at any size, and its
fixed numpy cost (building the CSR arrays once per workflow) is a
fraction of one DES run even on the paper's 20-task workflows.
"""

from __future__ import annotations

from repro.cloud.instance import InstanceType
from repro.core.schedule import Schedule
from repro.errors import SimulationError
from repro.kernels.columnar import get_columnar, remote_transfer_seconds
from repro.kernels.dispatch import platform_eligible
from repro.obs.metrics import current as current_metrics

__all__ = ["replay_verify"]

_EPS = 1e-6


def _eligible(schedule: Schedule, tracer) -> bool:
    if tracer is not None and getattr(tracer, "enabled", True):
        return False
    if current_metrics() is not None:
        return False
    vms = schedule.vms
    if not vms:
        return False
    platform = schedule.platform
    it = vms[0].itype
    if not platform_eligible(platform, it):
        return False
    if not platform.prebooted and platform.boot_seconds > 0:
        return False
    if getattr(platform, "market", None) is not None:
        # market runs are priced/interrupted through the DES fault
        # machinery; the columnar recurrence cannot replay them
        return False
    region_name = vms[0].region.name
    for vm in vms:
        if type(vm.itype) is not InstanceType:
            return False
        if vm.itype != it or vm.region.name != region_name:
            return False
    return True


def replay_verify(schedule: Schedule, tracer=None) -> bool:
    """Verify *schedule* by recurrence replay when eligible.

    Returns ``True`` after a successful verification (byte-identical to
    what the DES would observe — same single additions and ``max``
    folds, checked against the plan with ``check_against``'s
    tolerances), ``False`` when the schedule needs the real DES.
    Raises :class:`SimulationError` on divergence, like the DES path.
    """
    if not _eligible(schedule, tracer):
        return False
    wf = schedule.workflow
    platform = schedule.platform
    it = schedule.vms[0].itype
    cd = get_columnar(wf)
    n = cd.n
    index = cd.index
    runt = (cd.works / it.speedup).tolist()
    rtr = remote_transfer_seconds(cd.pred_gb, platform, it).tolist()
    pp = cd.pred_ptr.tolist()
    pi = cd.pred_idx.tolist()
    sp = cd.succ_ptr.tolist()
    si = cd.succ_idx.tolist()

    # VM queues in placement order — the DES executes each VM's queue
    # front-to-back, so a task also waits on its queue predecessor
    tvm = [-1] * n
    qprev = [-1] * n
    qnext = [-1] * n
    planned_s = [0.0] * n
    planned_f = [0.0] * n
    for v, vm in enumerate(schedule.vms):
        prev = -1
        for p in vm.placements:
            t = index[p.task_id]
            tvm[t] = v
            planned_s[t] = p.start
            planned_f[t] = p.end
            if prev != -1:
                qnext[prev] = t
            qprev[t] = prev
            prev = t

    indeg = [pp[t + 1] - pp[t] + (1 if qprev[t] != -1 else 0) for t in range(n)]
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
        ids = cd.ids
        missing = next(
            tid for tid in wf.task_ids if indeg[index[tid]] > 0
        )
        raise SimulationError(f"task {missing!r} never completed in simulation")

    ids = cd.ids
    for tid in wf.task_ids:
        t = index[tid]
        ps = planned_s[t]
        pf = planned_f[t]
        gs = got_s[t]
        gf = got_f[t]
        if abs(gs - ps) > _EPS * max(1.0, ps):
            raise SimulationError(
                f"{tid!r}: simulated start {gs:.6f} != planned {ps:.6f}"
            )
        if abs(gf - pf) > _EPS * max(1.0, pf):
            raise SimulationError(
                f"{tid!r}: simulated finish {gf:.6f} != planned {pf:.6f}"
            )
    return True
