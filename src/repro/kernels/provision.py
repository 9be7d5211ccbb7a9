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
    """Shared flat state + closures of one fused placement run."""

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
        "dr_gen",
        "pv_task",
        "pv_set",
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
        "rent",
        "reuse_pred",
        "reuse_pool",
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
        #: per-task memoized generic (non-predecessor-hosting) data-ready
        self.dr_gen: List = [None] * n
        #: the task being placed and the set of VM ids hosting its
        #: predecessors (fixed once they are placed — allocation order is
        #: topological); keeps ``es`` O(1) on wide fan-in tasks.  One
        #: slot, not one set per task: a set per task would outlive its
        #: task and leave the collector 50k+ containers to rescan.
        self.pv_task = -1
        self.pv_set: set = set()
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
        self.rent = 0
        self.reuse_pred = 0
        self.reuse_pool = 0

    # ------------------------------------------------------------------
    def pred_vm_set(self, t: int) -> set:
        """Ids of the VMs hosting *t*'s predecessors, memoized for the
        task being placed."""
        if self.pv_task != t:
            pp = self.pp
            pi = self.pi
            tvm = self.tvm
            self.pv_set = {tvm[pi[e]] for e in range(pp[t], pp[t + 1])}
            self.pv_task = t
        return self.pv_set

    def data_ready(self, t: int) -> float:
        """Generic data-ready of *t* on a VM hosting none of its
        predecessors (memoized): every edge pays its remote transfer."""
        best = self.dr_gen[t]
        if best is None:
            pi = self.pi
            tfin = self.tfin
            rtr = self.rtr
            best = 0.0
            for e in range(self.pp[t], self.pp[t + 1]):
                cand = tfin[pi[e]] + rtr[e]
                if cand > best:
                    best = cand
            self.dr_gen[t] = best
        return best

    def es(self, t: int, v: int) -> float:
        """``ScheduleBuilder.earliest_start`` over the flat state."""
        pp = self.pp
        lo = pp[t]
        hi = pp[t + 1]
        ready = self.vm_ready[v]
        if lo != hi:
            if v in self.pred_vm_set(t):
                # exact per-predecessor pass (same_vm transfers are 0.0;
                # fin + 0.0 == fin for fin > 0)
                pi = self.pi
                tvm = self.tvm
                tfin = self.tfin
                rtr = self.rtr
                best = 0.0
                for e in range(lo, hi):
                    p = pi[e]
                    cand = tfin[p] if tvm[p] == v else tfin[p] + rtr[e]
                    if cand > best:
                        best = cand
            else:
                # all candidate VMs share one (flavor, region): the
                # builder's per-task memo collapses to a single slot
                best = self.data_ready(t)
            if best > ready:
                ready = best
        if self.cold and not self.stamps[v]:
            ready += self.boot
        return ready

    def new_vm(self) -> int:
        # slots are preallocated with fresh-VM defaults and never
        # recycled, so claiming one is just counting it
        v = self.nv
        self.nv = v + 1
        return v

    def place(self, t: int, v: int) -> None:
        """``ScheduleBuilder.place`` + eager paid-horizon maintenance."""
        s = self.es(t, v)
        d = self.runt[t]
        f = s + d
        if not self.stamps[v]:
            self.vm_startt[v] = s
        self.log.append(t)
        self.tvm[t] = v
        self.tstart[t] = s
        self.tfin[t] = f
        self.vm_ready[v] = f
        self.vm_busy[v] += d
        self.stamps[v] += 1
        up = f - self.vm_startt[v]
        btu = self.btu
        k = math.ceil(up / btu - 1e-9)
        if k < 1:
            k = 1
        self.vm_paid[v] = self.vm_startt[v] + k * btu

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

    def first_fit(self, st: _State, t: int, require_fit: bool, fits) -> int:
        """The first live VM in pool order that can host *t* (-1 if
        none)."""
        if not self.vids:
            return -1
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
        found = False
        if gen.any():
            # es = max(ready, data-ready); max returns one of its
            # operands, so each element is the float ``_State.es``
            # computes
            es_v = np.maximum(self.ready, st.data_ready(t))
            ok = gen & (es_v <= self.lim)
            if require_fit:
                ok &= es_v + st.runt[t] <= self.lim
            k = int(ok.argmax())
            found = bool(ok[k])
        # the exact candidates the walk reaches before the vector's first
        # fit, in pool order: each costs one O(preds) pass at most once
        for s in exact:
            if found and s > k:
                break
            if fits(t, self.vids[s]):
                k = s
                found = True
                break
        if not found:
            return -1
        self.live[k] = False
        return self.vids[k]


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
    es = st.es
    place = st.place
    runt = st.runt
    vm_paid = st.vm_paid
    require_fit = not exceed
    order, lv_starts = cd.level_groups()
    neg_runt = -st.runt_v
    sr_v = cd.str_rank
    #: per-VM last hosted level — levels are packed in ascending order,
    #: so "hosts the current level" is exactly ``vm_lastlvl == lvl``
    vm_lastlvl: List[int] = []
    pool = None

    def fits(t: int, v: int) -> bool:
        """is_reusable, then (NotExceed) fits_in_btu, on a rented VM."""
        s = es(t, v)
        lim = vm_paid[v] + 1e-9
        return s <= lim and (not require_fit or s + runt[t] <= lim)

    def rent(t: int, lvl: int) -> None:
        st.rent += 1
        v = st.new_vm()
        vm_lastlvl.append(lvl)
        place(t, v)

    for lvl in range(cd.n_levels):
        nodes = order[lv_starts[lvl] : lv_starts[lvl + 1]]
        sel = np.lexsort((sr_v[nodes], neg_runt[nodes]))
        tasks = nodes[sel].tolist()
        parallel = len(tasks) > 1
        for t in tasks:
            # the largest predecessor's VM: level exclusion (always
            # passed by a sequential task), then is_reusable, then the
            # fit
            pv = st.largest_pred_vm(t)
            if pv != -1 and vm_lastlvl[pv] != lvl and fits(t, pv):
                st.reuse_pred += 1
                place(t, pv)
                vm_lastlvl[pv] = lvl
                if pool is not None and pool.lvl == lvl:
                    pool.claim(pv)
                continue
            if not parallel:
                # a sequential task takes its largest predecessor's VM
                # or a new one
                rent(t, lvl)
                continue
            # the busiest accepted VM: the pool is built on the
            # level's first query
            if pool is None or pool.lvl != lvl:
                pool = _LevelPool(st, vm_lastlvl, lvl)
            v = pool.first_fit(st, t, require_fit, fits)
            if v == -1:
                rent(t, lvl)
            else:
                st.reuse_pool += 1
                place(t, v)
                vm_lastlvl[v] = lvl

    _flush_metrics(st.nv, st.n, st.rent, st.reuse_pred, st.reuse_pool)
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
    es = st.es
    place = st.place
    runt = st.runt
    pp = st.pp
    stamps = st.stamps
    vm_paid = st.vm_paid
    busy_heap: list = []
    heap_live = False

    for t in order:
        if pp[t] == pp[t + 1]:  # entry task: always its own VM
            st.rent += 1
            v = st.new_vm()
            place(t, v)
            if heap_live:
                heapq.heappush(busy_heap, (-st.vm_busy[v], v, stamps[v]))
            continue
        # the busiest reusable VM: the heap is built on the first
        # query; the current entry is kept (deferred) whether or not
        # it is chosen
        if not heap_live:
            busy_heap = [
                (-st.vm_busy[v], v, stamps[v]) for v in range(st.nv) if stamps[v]
            ]
            heapq.heapify(busy_heap)
            heap_live = True
        target = -1
        deferred = []
        while busy_heap:
            entry = heapq.heappop(busy_heap)
            vid = entry[1]
            if entry[2] != stamps[vid]:
                continue
            deferred.append(entry)
            if es(t, vid) <= vm_paid[vid] + 1e-9:
                target = vid
                break
        for entry in deferred:
            heapq.heappush(busy_heap, entry)
        if target == -1:
            st.rent += 1
            v = st.new_vm()
        elif exceed or es(t, target) + runt[t] <= vm_paid[target] + 1e-9:
            st.reuse_pool += 1
            v = target
        else:
            st.rent += 1
            v = st.new_vm()
        place(t, v)
        heapq.heappush(busy_heap, (-st.vm_busy[v], v, stamps[v]))

    _flush_metrics(st.nv, st.n, st.rent, st.reuse_pred, st.reuse_pool)
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
