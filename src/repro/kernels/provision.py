"""Fused columnar placement kernels for the paper's provisioning loops.

Each kernel runs one (allocation order x provisioning policy) pass with
all per-task and per-VM state held in flat Python lists over the
:class:`~repro.kernels.columnar.ColumnarDAG` index — no ``BuilderVM``
objects, no per-placement dicts, no memo-dict lookups in
``platform.transfer_time`` — and assembles the final :class:`Schedule`
and runs its feasibility check on the arrays at the end.

The StartPar* and AllPar* kernels are *transcriptions*, not
re-designs: every branch mirrors the corresponding
:class:`~repro.core.builder.ScheduleBuilder` query and the policy's
``select_vm`` exactly, including

* the float operations (single additions, ``max`` folds over the same
  operands, the ``1e-9`` reuse/fit epsilons, BTU rounding via
  ``max(1, ceil(uptime/btu - 1e-9))``),
* the choice of VM: the builder's running-max scan picks
  ``max(busy, -id)`` over the VMs it accepts, and the kernels reach
  the same VM as the first accepted one in ``(-busy, id)`` order
  (StartPar* pops a busy heap that drops stale-stamp entries; AllPar*
  scans its level pool first-fit with the VMs already hosting the
  level masked out),
* and the ``MetricsRegistry`` counters, which record simulation facts
  only (VMs rented, tasks placed, and each ``provision.*`` decision),
  not how much work a query took; the totals are flushed once at the
  end (key-identical because zero totals are not flushed).

Each candidate VM's start is computed once, and the task is placed at
it: the reuse and fit tests and ``_State.place`` share one float.  Per
task, the generic data-ready (every edge remote) is one pass over its
predecessors; it is the start on a fresh VM (plus the boot on a cold
platform: a fresh VM hosts no predecessor) and, with the VM's ready
time, on a rented VM hosting none.  A rented VM hosting a predecessor
takes the exact per-edge pass, and the set of such VMs is made at most
once per task, only when a candidate is examined.

OneVMperTask is its recurrence instead: each task rents its own VM, so
no queue delays it and no edge stays on one VM, and its start is its
data-ready time over every remote edge (plus the boot on a cold
platform) — the builder's ``earliest_start`` on a fresh VM, with the
same operands in the same order, and no per-VM state.

Eligibility is decided by the call sites (the exact stock scheduler
and policy types, at any size); the property tests in
``tests/core/test_kernel_equivalence.py`` assert byte-identical
schedules and counters against the builder path.
"""

from __future__ import annotations

import heapq
import math
from typing import List

import numpy as np

from repro.core.schedule import Schedule, check_plan, plan_view
from repro.kernels.columnar import (
    get_columnar,
    pred_lists,
    pred_transfer_seconds,
    upward_rank_values,
)
from repro.obs.metrics import current as current_metrics

__all__ = ["fused_level_schedule", "fused_heft_schedule"]

_INF = float("inf")


class _State:
    """Shared flat state + closures of one fused placement run.

    No per-task memo: a task's generic data-ready and predecessor-VM
    set are computed at most once, by the loop placing it, and die with
    its iteration — a container per task would outlive its task and
    leave the collector 50k+ of them to rescan."""

    __slots__ = (
        "n",
        "runt",
        "runt_v",
        "pp",
        "pi",
        "rtr",
        "sr",
        "tstart",
        "tfin",
        "tvm",
        "nv",
        "log",
        "vm_busy",
        "vm_ready",
        "vm_startt",
        "vm_paid",
        "stamps",
        "cold",
        "boot",
        "btu",
    )

    def __init__(self, workflow, cd, platform, itype) -> None:
        self.n = cd.n
        self.runt_v = cd.works / itype.speedup
        self.runt = self.runt_v.tolist()
        self.pp, self.pi = pred_lists(workflow)
        self.rtr = pred_transfer_seconds(workflow, platform, itype)
        self.sr = cd.str_rank.tolist()
        n = self.n
        self.tstart = [0.0] * n
        self.tfin = [0.0] * n
        self.tvm = [-1] * n
        #: rented VMs; per-VM slots are preallocated to the VM-count
        #: ceiling (one per task) and the first ``nv`` are live
        self.nv = 0
        #: tasks in placement order (grouped per VM at assembly)
        self.log: List[int] = []
        self.vm_busy: List[float] = [0.0] * n
        self.vm_ready: List[float] = [0.0] * n
        self.vm_startt: List[float] = [0.0] * n
        self.vm_paid: List[float] = [_INF] * n
        #: per-VM placement count (also the busy heap's staleness stamp)
        self.stamps: List[int] = [0] * n
        self.cold = not platform.prebooted
        self.boot = platform.boot_seconds
        self.btu = platform.billing.btu_seconds

    # ------------------------------------------------------------------
    def pred_vm_set(self, t: int) -> set:
        """Ids of the VMs hosting *t*'s predecessors (fixed once they are
        placed: allocation order is topological)."""
        pi = self.pi
        tvm = self.tvm
        return {tvm[pi[e]] for e in range(self.pp[t], self.pp[t + 1])}

    def data_ready(self, t: int) -> float:
        """Generic data-ready of *t* on a VM hosting none of its
        predecessors: every edge pays its remote transfer.  All
        candidate VMs share one (flavor, region), so it is one value per
        task, the builder's per-task memo."""
        pi = self.pi
        tfin = self.tfin
        rtr = self.rtr
        best = 0.0
        for e in range(self.pp[t], self.pp[t + 1]):
            cand = tfin[pi[e]] + rtr[e]
            if cand > best:
                best = cand
        return best

    def fresh_start(self, dr: float) -> float:
        """``earliest_start`` on a VM rented for the task, from its
        generic data-ready *dr*: a fresh VM hosts no predecessor and is
        ready at ``0.0 <= dr``; a cold one boots first."""
        return dr + self.boot if self.cold else dr

    def host_start(self, t: int, v: int) -> float:
        """``earliest_start`` of *t* on rented VM *v*, which hosts one of
        its predecessors: the exact per-edge pass (same-VM transfers are
        0.0, and ``fin + 0.0 == fin`` for ``fin > 0``).  A rented VM has
        booted."""
        pi = self.pi
        tvm = self.tvm
        tfin = self.tfin
        rtr = self.rtr
        best = 0.0
        for e in range(self.pp[t], self.pp[t + 1]):
            p = pi[e]
            cand = tfin[p] if tvm[p] == v else tfin[p] + rtr[e]
            if cand > best:
                best = cand
        ready = self.vm_ready[v]
        return best if best > ready else ready

    def fit_start(self, t: int, v: int, require_fit: bool) -> float:
        """is_reusable, then (NotExceed) fits_in_btu, of *t* on rented VM
        *v*, which hosts one of its predecessors: *t*'s start on it, or
        ``-1.0`` if it does not fit (starts are never negative)."""
        s = self.host_start(t, v)
        lim = self.vm_paid[v] + 1e-9
        if s <= lim and (not require_fit or s + self.runt[t] <= lim):
            return s
        return -1.0

    def new_vm(self) -> int:
        # slots are preallocated with fresh-VM defaults and never
        # recycled, so claiming one is just counting it
        v = self.nv
        self.nv = v + 1
        return v

    def place(self, t: int, v: int, s: float) -> None:
        """``ScheduleBuilder.place`` of *t* on *v* at its start *s* (the
        ``earliest_start`` its caller chose the VM by) + eager
        paid-horizon maintenance."""
        d = self.runt[t]
        f = s + d
        stamps = self.stamps
        if stamps[v]:
            first = self.vm_startt[v]
        else:
            first = self.vm_startt[v] = s
        stamps[v] += 1
        self.log.append(t)
        self.tvm[t] = v
        self.tstart[t] = s
        self.tfin[t] = f
        self.vm_ready[v] = f
        self.vm_busy[v] += d
        btu = self.btu
        k = math.ceil((f - first) / btu - 1e-9)
        if k < 1:
            k = 1
        self.vm_paid[v] = first + k * btu

    def largest_pred_vm(self, t: int) -> int:
        """``vm_of_largest_predecessor``: max over placed predecessors by
        ``(execution time, id)`` — ids are unique, so the max is too."""
        lo = self.pp[t]
        hi = self.pp[t + 1]
        if lo == hi:
            return -1
        pi = self.pi
        tfin = self.tfin
        tstart = self.tstart
        sr = self.sr
        bd = -1.0
        bs = -1
        pv = -1
        for e in range(lo, hi):
            p = pi[e]
            d = tfin[p] - tstart[p]
            if d > bd or (d == bd and sr[p] > bs):
                bd = d
                bs = sr[p]
                pv = self.tvm[p]
        return pv


def _flush_metrics(vms: int, tasks: int, rent: int, reuse_pred=0, reuse_pool=0) -> None:
    """Flush one run's placement totals (zero decision totals are not
    flushed, as the builder never counts them)."""
    metrics = current_metrics()
    if metrics is None:
        return
    metrics.inc("builder.vms_rented", vms)
    metrics.inc("builder.tasks_placed", tasks)
    if rent:
        metrics.inc("provision.rent", rent)
    if reuse_pred:
        metrics.inc("provision.reuse_pred", reuse_pred)
    if reuse_pool:
        metrics.inc("provision.reuse_pool", reuse_pool)


# ----------------------------------------------------------------------
# AllPar[Not]Exceed over level order
# ----------------------------------------------------------------------
class _LevelPool:
    """One level's AllPar* candidates, as sorted arrays.

    The candidates are the rented VMs not hosting the level.  None of
    them changes while the level is placed — a VM only changes when a
    task lands on it, and then it hosts the level — so the builder's
    ``max(busy, -id)`` over the accepted VMs is the first accepted one
    in one fixed ``(-busy, id)`` order, a first-fit scan under a
    shrinking ``live`` mask.
    """

    __slots__ = ("lvl", "vids", "ready", "lim", "live", "slot")

    def __init__(self, st: _State, vm_lastlvl: List[int], lvl: int) -> None:
        # every rented VM already hosts a task (it is rented for one),
        # so the level test is the whole membership rule
        nv = len(vm_lastlvl)
        cand = np.flatnonzero(np.asarray(vm_lastlvl) != lvl)
        busy = np.asarray(st.vm_busy[:nv])[cand]
        # stable sort of ascending ids: busy ties keep the heap's id order
        vids = cand[np.argsort(-busy, kind="stable")]
        self.lvl = lvl
        self.vids = vids.tolist()
        self.ready = np.asarray(st.vm_ready[:nv])[vids]
        #: the reuse limit ``paid + 1e-9``, added per VM as the scalar
        #: test adds it
        self.lim = np.asarray(st.vm_paid[:nv])[vids] + 1e-9
        self.live = np.ones(len(self.vids), dtype=bool)
        #: VM id -> position in the sorted order (-1: not a candidate)
        self.slot = np.full(nv, -1, dtype=np.int64)
        self.slot[vids] = np.arange(len(self.vids))

    def claim(self, v: int) -> None:
        """Drop *v* (rented before the pool was built): it now hosts
        the level."""
        s = self.slot[v]
        if s >= 0:
            self.live[s] = False

    def first_fit(self, st: _State, t: int, dr: float, require_fit: bool):
        """The first live VM in pool order that can host *t*, and *t*'s
        start on it (``(-1, -1.0)`` if none); *dr* is *t*'s generic
        data-ready."""
        if not self.vids:
            return -1, -1.0
        #: live candidates that host no predecessor of t
        gen = self.live.copy()
        exact = []
        if st.pp[t] != st.pp[t + 1]:
            # VMs hosting a predecessor need the exact per-edge
            # data-ready: they leave the vector and are tried below.
            # Predecessors sit on earlier levels, so their VMs were all
            # rented before this pool was built.
            pv = st.pred_vm_set(t)
            pos = self.slot[np.fromiter(pv, dtype=np.int64, count=len(pv))]
            pos = pos[pos >= 0]
            pos = pos[gen[pos]]
            if pos.size:
                gen[pos] = False
                exact = np.sort(pos).tolist()
        k = 0
        start = -1.0
        if gen.any():
            # es = max(ready, data-ready); max returns one of its
            # operands, so each element is the float the builder's
            # ``earliest_start`` computes
            es_v = np.maximum(self.ready, dr)
            ok = gen & (es_v <= self.lim)
            if require_fit:
                ok &= es_v + st.runt[t] <= self.lim
            k = int(ok.argmax())
            if ok[k]:
                start = es_v[k].item()
        # the exact candidates the walk reaches before the vector's first
        # fit, in pool order: each costs one O(preds) pass at most once
        for slot in exact:
            if start >= 0.0 and slot > k:
                break
            s = st.fit_start(t, self.vids[slot], require_fit)
            if s >= 0.0:
                k = slot
                start = s
                break
        if start < 0.0:
            return -1, -1.0
        self.live[k] = False
        return self.vids[k], start


def fused_level_schedule(
    workflow,
    platform,
    itype,
    region,
    exceed: bool,
    algorithm: str,
    provisioning: str,
) -> Schedule:
    """Level-ranked AllPar[Not]Exceed as one fused pass."""
    cd = get_columnar(workflow)
    st = _State(workflow, cd, platform, itype)
    fit_start = st.fit_start
    largest_pred_vm = st.largest_pred_vm
    data_ready = st.data_ready
    fresh_start = st.fresh_start
    new_vm = st.new_vm
    place = st.place
    require_fit = not exceed
    order, lv_starts = cd.level_groups()
    neg_runt = -st.runt_v
    sr_v = cd.str_rank
    #: per-VM last hosted level — levels are packed in ascending order,
    #: so "hosts the current level" is exactly ``vm_lastlvl == lvl``
    vm_lastlvl: List[int] = []
    pool = None
    rent = reuse_pred = reuse_pool = 0

    for lvl in range(cd.n_levels):
        nodes = order[lv_starts[lvl] : lv_starts[lvl + 1]]
        sel = np.lexsort((sr_v[nodes], neg_runt[nodes]))
        tasks = nodes[sel].tolist()
        parallel = len(tasks) > 1
        for t in tasks:
            # the largest predecessor's VM: level exclusion (always
            # passed by a sequential task), then is_reusable, then the
            # fit
            pv = largest_pred_vm(t)
            if pv != -1 and vm_lastlvl[pv] != lvl:
                s = fit_start(t, pv, require_fit)
                if s >= 0.0:
                    reuse_pred += 1
                    place(t, pv, s)
                    vm_lastlvl[pv] = lvl
                    if pool is not None and pool.lvl == lvl:
                        pool.claim(pv)
                    continue
            dr = data_ready(t)
            # a sequential task takes its largest predecessor's VM or a
            # new one; a parallel one the busiest accepted VM, from the
            # pool built on the level's first query
            if parallel:
                if pool is None or pool.lvl != lvl:
                    pool = _LevelPool(st, vm_lastlvl, lvl)
                v, s = pool.first_fit(st, t, dr, require_fit)
                if v != -1:
                    reuse_pool += 1
                    place(t, v, s)
                    vm_lastlvl[v] = lvl
                    continue
            rent += 1
            vm_lastlvl.append(lvl)
            place(t, new_vm(), fresh_start(dr))

    _flush_metrics(st.nv, st.n, rent, reuse_pred, reuse_pool)
    return _assemble(
        workflow, platform, itype, region, cd, st.tstart, st.tfin, st.tvm, st.log,
        st.nv, algorithm, provisioning,
    )


# ----------------------------------------------------------------------
# StartPar[Not]Exceed / OneVMperTask over HEFT order
# ----------------------------------------------------------------------
def fused_heft_schedule(
    workflow,
    platform,
    itype,
    region,
    policy: str,
    exceed: bool,
    algorithm: str,
    provisioning: str,
) -> Schedule:
    """Rank-ordered StartPar*/OneVMperTask as one fused pass.

    *policy* is ``"startpar"`` or ``"onevm"``; *exceed* only applies to
    the former.
    """
    cd = get_columnar(workflow)
    ranks = upward_rank_values(workflow, platform, itype)
    order = np.lexsort((cd.str_rank, -ranks))
    if policy == "onevm":
        return _one_vm_per_task(
            workflow, platform, itype, region, cd, order, algorithm, provisioning
        )
    order = order.tolist()
    st = _State(workflow, cd, platform, itype)
    place = st.place
    new_vm = st.new_vm
    data_ready = st.data_ready
    fresh_start = st.fresh_start
    pred_vm_set = st.pred_vm_set
    host_start = st.host_start
    runt = st.runt
    pp = st.pp
    vm_busy = st.vm_busy
    vm_ready = st.vm_ready
    vm_paid = st.vm_paid
    stamps = st.stamps
    heappop = heapq.heappop
    heappush = heapq.heappush
    busy_heap: list = []
    heap_live = False
    rent = 0
    reuse = 0

    for t in order:
        if pp[t] == pp[t + 1]:  # entry task: always its own VM
            rent += 1
            v = new_vm()
            place(t, v, fresh_start(0.0))
            if heap_live:
                heappush(busy_heap, (-vm_busy[v], v, stamps[v]))
            continue
        # the busiest reusable VM: the heap is built on the first
        # query; the current entry is kept (deferred) whether or not
        # it is chosen
        if not heap_live:
            busy_heap = [(-vm_busy[v], v, stamps[v]) for v in range(st.nv) if stamps[v]]
            heapq.heapify(busy_heap)
            heap_live = True
        # one generic data-ready per task: the start on a fresh VM, and
        # on any candidate hosting no predecessor once it is free
        dr = data_ready(t)
        target = -1
        deferred = []
        #: VMs hosting a predecessor, made for the first live candidate
        hosts = None
        while busy_heap:
            entry = heappop(busy_heap)
            vid = entry[1]
            if entry[2] != stamps[vid]:
                continue
            deferred.append(entry)
            if hosts is None:
                hosts = pred_vm_set(t)
            if vid in hosts:
                s = host_start(t, vid)
            else:
                # a rented VM has booted: its start is max(ready, dr)
                s = vm_ready[vid]
                if dr > s:
                    s = dr
            if s <= vm_paid[vid] + 1e-9:
                target = vid
                break
        for entry in deferred:
            heappush(busy_heap, entry)
        if target != -1 and (exceed or s + runt[t] <= vm_paid[target] + 1e-9):
            reuse += 1
            v = target
        else:
            rent += 1
            v = new_vm()
            s = fresh_start(dr)
        place(t, v, s)
        heappush(busy_heap, (-vm_busy[v], v, stamps[v]))

    _flush_metrics(st.nv, st.n, rent, reuse_pool=reuse)
    return _assemble(
        workflow, platform, itype, region, cd, st.tstart, st.tfin, st.tvm, st.log,
        st.nv, algorithm, provisioning,
    )


def _one_vm_per_task(
    workflow, platform, itype, region, cd, order, algorithm, provisioning
) -> Schedule:
    """OneVMperTask over the HEFT *order* as its recurrence.

    The order's ``k``-th task rents VM ``k`` and is the only task it
    hosts, so no VM queue delays it and no edge stays on one VM: it
    starts at ``max(0.0, max over predecessors (finish + transfer))``,
    plus the boot on a cold platform, and finishes ``runtime`` later —
    the builder's ``earliest_start`` on a fresh VM, operand for operand.
    """
    n = cd.n
    runt = (cd.works / itype.speedup).tolist()
    pp, pi = pred_lists(workflow)
    rtr = pred_transfer_seconds(workflow, platform, itype)
    cold = not platform.prebooted
    boot = platform.boot_seconds
    tstart = [0.0] * n
    tfin = [0.0] * n
    tvm = [0] * n
    for v, t in enumerate(order.tolist()):
        s = 0.0
        for e in range(pp[t], pp[t + 1]):
            c = tfin[pi[e]] + rtr[e]
            if c > s:
                s = c
        if cold:
            s += boot
        tstart[t] = s
        tfin[t] = s + runt[t]
        tvm[t] = v
    _flush_metrics(n, n, n)
    return _assemble(
        workflow, platform, itype, region, cd, tstart, tfin, tvm, order, n,
        algorithm, provisioning,
    )


# ----------------------------------------------------------------------
# schedule assembly
# ----------------------------------------------------------------------
def _assemble(
    workflow, platform, itype, region, cd, tstart, tfin, tvm, log, nv: int,
    algorithm: str, provisioning: str,
) -> Schedule:
    """Freeze one run's placements — per task its start, finish and VM,
    and the tasks in placement order (*log*) over *nv* VMs — into a
    validated column-backed :class:`Schedule`.

    Mirrors ``ScheduleBuilder.build`` (placement end is
    ``start + (finish - start)``, the exact IEEE ops of the builder's
    freeze) and runs ``Schedule.validate``'s :func:`check_plan` on the
    arrays held here, before the columns are made; the schedule keeps
    that view for the verify certificate and its billing.  No VM or
    Placement object is made.
    """
    starts = np.asarray(tstart)
    ends = starts + (np.asarray(tfin) - starts)
    tvm_v = np.asarray(tvm)
    # a stable sort of the placement log by VM: each VM's tasks in the
    # order they were placed on it, which is their start order
    seq = np.asarray(log, dtype=np.int64)
    seq = seq[np.argsort(tvm_v[seq], kind="stable")]
    ptr = np.zeros(nv + 1, dtype=np.int64)
    np.cumsum(np.bincount(tvm_v, minlength=nv), out=ptr[1:])
    kind = np.zeros(nv, dtype=np.int64)
    region = region or platform.default_region
    boot = platform.boot_seconds
    view = plan_view(
        workflow, platform.network, tvm_v, starts, ends, seq, ptr, kind, [itype],
        None, [region], boot,
    )
    check_plan(workflow, view, range(nv))
    return Schedule._from_columns(
        workflow,
        platform,
        (
            tvm,
            tstart,
            ends.tolist(),
            ptr.tolist(),
            seq.tolist(),
            list(range(nv)),
            [itype] * nv,
            [region] * nv,
            [boot] * nv,
        ),
        algorithm,
        provisioning,
        view,
    )
