"""The immutable product of a scheduling run, with validation and cost
accounting.

A :class:`Schedule` maps every workflow task to a VM with concrete
times.  It is stored as columns over the workflow's task index — per
task the hosting VM, start and end; per VM its task order, id, flavor,
region and boot time.  The :class:`~repro.cloud.vm.VM` and
:class:`~repro.cloud.vm.Placement` objects are views: a schedule built
from VMs keeps the ones it was given, a column-built one (the fused
kernels) makes them once, on the first object-level query.  It knows
how to check its own feasibility (dependencies, transfers, per-VM
serialization) and how to price itself (BTU rent + banded cross-region
egress).

A schedule makes its plan as arrays (:class:`PlanView`) once, on the
first query that needs them, and keeps them; the fused kernels and
every other producer hand over the view they checked.  Validation,
pricing (makespan, BTUs, rent, idle time, cross-region volumes) and
the verify certificate all read that one view.  Pricing never checks
feasibility: an infeasible plan prices, and only :meth:`validate`
refuses it.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError
from itertools import count
from operator import attrgetter
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.cloud.platform import CloudPlatform
from repro.cloud.region import Region
from repro.cloud.vm import VM, Placement
from repro.errors import InvalidScheduleError
from repro.kernels.columnar import fleet_costs, get_columnar
from repro.workflows.dag import Workflow

_EPS = 1e-6

_NAME = attrgetter("name")

#: the columns that define a schedule, over the workflow's task index:
#: per task its VM position, start and end; per VM its task order as
#: CSR (``_vm_seq[_vm_ptr[v]:_vm_ptr[v + 1]]``), id, flavor, region and
#: boot time
_COLUMNS = (
    "_tvm",
    "_start",
    "_end",
    "_vm_ptr",
    "_vm_seq",
    "_vm_id",
    "_vm_itype",
    "_vm_region",
    "_vm_boot",
)


class Schedule:
    """A complete task-to-VM mapping with concrete times.

    ``Schedule(workflow, platform, vms, algorithm, provisioning)`` walks
    the VMs once, checking exactly-once coverage, fills the columns and
    keeps *vms* as its views; the fused kernels hand their columns over
    directly (:meth:`_from_columns`).
    """

    def __init__(
        self,
        workflow: Workflow,
        platform: CloudPlatform,
        vms: List[VM],
        algorithm: str = "",
        provisioning: str = "",
    ) -> None:
        ids, index = workflow._task_index()
        n = len(ids)
        tvm = [-1] * n
        start = [0.0] * n
        end = [0.0] * n
        ptr = [0]
        seq: List[int] = []
        extra: Dict[str, VM] = {}
        for v, vm in enumerate(vms):
            for p in vm.placements:
                t = index.get(p.task_id)
                if t is None:
                    other = extra.get(p.task_id)
                    if other is None:
                        extra[p.task_id] = vm
                        continue
                elif tvm[t] == -1:
                    tvm[t] = v
                    start[t] = p.start
                    end[t] = p.end
                    seq.append(t)
                    continue
                else:
                    other = vms[tvm[t]]
                raise InvalidScheduleError(
                    f"task {p.task_id!r} placed on both "
                    f"{other.name} and {vm.name}"
                )
            ptr.append(len(seq))
        if len(seq) != n:
            missing = sorted(ids[t] for t in range(n) if tvm[t] == -1)
            raise InvalidScheduleError(f"tasks never scheduled: {missing}")
        if extra:
            raise InvalidScheduleError(
                f"placements for unknown tasks: {sorted(extra)}"
            )
        columns = (
            tvm,
            start,
            end,
            ptr,
            seq,
            [vm.id for vm in vms],
            [vm.itype for vm in vms],
            [vm.region for vm in vms],
            [vm.boot_seconds for vm in vms],
        )
        self._fill(workflow, platform, algorithm, provisioning, columns, None)
        self.__dict__["_vms"] = vms

    @classmethod
    def _from_columns(
        cls,
        workflow: Workflow,
        platform: CloudPlatform,
        columns: tuple,
        algorithm: str = "",
        provisioning: str = "",
        view: Optional["PlanView"] = None,
    ) -> "Schedule":
        """A schedule straight from its columns (ordered as
        :data:`_COLUMNS`, laid out on ``workflow``'s task index); the
        caller guarantees exactly-once coverage.  A caller that has run
        :func:`check_plan` on them passes the *view* it checked."""
        self = cls.__new__(cls)
        self._fill(workflow, platform, algorithm, provisioning, columns, view)
        return self

    def _fill(self, workflow, platform, algorithm, provisioning, columns, view):
        d = self.__dict__
        d["workflow"] = workflow
        d["platform"] = platform
        d["algorithm"] = algorithm
        d["provisioning"] = provisioning
        d["_ids"], d["_index"] = workflow._task_index()
        (
            d["_tvm"],
            d["_start"],
            d["_end"],
            d["_vm_ptr"],
            d["_vm_seq"],
            d["_vm_id"],
            d["_vm_itype"],
            d["_vm_region"],
            d["_vm_boot"],
        ) = columns
        # made on demand: the VM views, the makespan, the billing, the
        # cost and the plan as arrays (:meth:`_plan_view`), which the
        # check, the pricing and the certificate read
        d["_vms"] = None
        d["_makespan"] = None
        d["_billing"] = None
        d["_total_cost"] = None
        d["_plan"] = view
        #: feasibility memo — the schedule is immutable, so one
        #: successful :meth:`validate` holds for its lifetime; a view
        #: handed over here is one :func:`check_plan` passed
        d["_checked"] = view is not None

    def relabeled(self, algorithm: str, provisioning: str) -> "Schedule":
        """The same plan under other labels, sharing the columns, the
        views and the feasibility verdict."""
        out = Schedule.__new__(Schedule)
        out.__dict__.update(self.__dict__, algorithm=algorithm, provisioning=provisioning)
        return out

    def __setattr__(self, name, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(
            getattr(self, k) == getattr(other, k)
            for k in ("workflow", "platform", "algorithm", "provisioning", *_COLUMNS)
        )

    __hash__ = None  # type: ignore[assignment]

    # ------------------------------------------------------------------
    # views and lookups
    # ------------------------------------------------------------------
    @property
    def vms(self) -> List[VM]:
        """The VMs as :class:`VM` objects (made once, then cached)."""
        vms = self._vms
        if vms is None:
            vms = self.__dict__["_vms"] = self._make_views()
        return vms

    def _make_views(self) -> List[VM]:
        ids = self._ids
        start = self._start
        end = self._end
        seq = self._vm_seq
        ptr = self._vm_ptr
        new_vm = VM.__new__
        new_p = Placement.__new__
        vms: List[VM] = []
        for v, (a, b) in enumerate(zip(ptr, ptr[1:])):
            # direct dict fill skips the frozen-dataclass init; the
            # ``__post_init__`` invariants held when the columns were made
            placements = []
            add = placements.append
            for t in seq[a:b]:
                p = new_p(Placement)
                d = p.__dict__
                d["task_id"] = ids[t]
                d["start"] = start[t]
                d["end"] = end[t]
                add(p)
            vm = new_vm(VM)
            vm.id = self._vm_id[v]
            vm.itype = self._vm_itype[v]
            vm.region = self._vm_region[v]
            vm.boot_seconds = self._vm_boot[v]
            vm.placements = placements
            vm._max_end = max((p.end for p in placements), default=float("-inf"))
            vms.append(vm)
        return vms

    def vm_of(self, task_id: str) -> VM:
        try:
            v = self._tvm[self._index[task_id]]
        except KeyError:
            raise InvalidScheduleError(f"unknown task {task_id!r}") from None
        return (self._vms or self.vms)[v]

    def start(self, task_id: str) -> float:
        try:
            return self._start[self._index[task_id]]
        except KeyError:
            raise InvalidScheduleError(f"unknown task {task_id!r}") from None

    def finish(self, task_id: str) -> float:
        try:
            return self._end[self._index[task_id]]
        except KeyError:
            raise InvalidScheduleError(f"unknown task {task_id!r}") from None

    @property
    def label(self) -> str:
        if self.algorithm and self.provisioning:
            return f"{self.algorithm}+{self.provisioning}"
        return self.algorithm or self.provisioning or "schedule"

    # ------------------------------------------------------------------
    # metrics, from the plan view
    # ------------------------------------------------------------------
    @property
    def makespan(self) -> float:
        """Finish of the last task (workflows are released at t=0)."""
        makespan = self._makespan
        if makespan is None:
            makespan = float(np.maximum.reduce(self._plan_view().end))
            self.__dict__["_makespan"] = makespan
        return makespan

    @property
    def vm_count(self) -> int:
        return len(self._vm_id)

    def _billed(self) -> tuple:
        """``(per-VM BTUs, total BTUs, idle seconds)``, memoized.

        A VM's BTUs are the billing model's rounding of
        ``VM.uptime_seconds``, its last end minus (its first start -
        boot); its idle time is the paid time minus the busy time, the
        left-to-right sum of its task durations in placement order.
        Billed by :meth:`_bill_plan` from the plan view.
        """
        billed = self._billing
        if billed is None:
            billed = self.__dict__["_billing"] = self._bill_plan(self._plan_view())
        return billed

    def _bill_plan(self, view: "PlanView") -> tuple:
        """:meth:`_billed` as whole-array steps over *view*: the
        billing model's rounding per VM, and the idle time with each
        VM's durations added one by one in its placement order.  An
        empty VM raises :class:`InvalidScheduleError`, a negative or NaN
        uptime the billing model's error, for the first such VM."""
        first, after = view.ptr[:-1], view.ptr[1:]
        nv = len(first)
        if np.count_nonzero(after - first) < nv:
            v = int((after - first).argmin())
            name = _vm_name(self._vm_id, view, v)
            raise InvalidScheduleError(f"{name} hosted no task")
        starts, ends = view.qstart, view.qend
        single = len(starts) == nv  # every VM hosts one task
        up = starts.copy() if single else starts[first]
        boot = view.boot
        if isinstance(boot, np.ndarray) or boot:
            up -= boot
        np.subtract(ends if single else ends[after - 1], up, out=up)
        billing = self.platform.billing
        btu = billing.btu_seconds
        btus = up / btu
        btus -= 1e-9
        np.ceil(btus, out=btus)
        if np.count_nonzero(btus >= 1.0) < nv:
            # ``BillingModel.btus`` on what the rounding leaves below
            # one: it refuses a negative or NaN uptime (the first one
            # raises, as in a walk over the VMs), bills 0 for none and
            # 1 for any other
            bad = ~(up >= 0)
            if bad.any():
                billing.btus(float(up[bad.argmax()]))
            np.maximum(btus, up > 0, out=btus)
        durs = ends - starts
        if single:
            busy = durs  # a VM's one duration, exactly
        else:
            # each VM's durations added in its queue order, as ``sum``
            # adds them: ``ufunc.at`` applies its indices one by one
            busy = np.zeros(nv)
            np.add.at(busy, view.qvm, durs)
        idle = btus * btu
        idle -= busy
        return btus, int(sum(btus.tolist())), sum(idle.tolist())

    @property
    def total_btus(self) -> int:
        return self._billed()[1]

    @property
    def rent_cost(self) -> float:
        """Sum over VMs of ``btus * price`` (the paper's fixed-price BTU
        arithmetic, ``BillingModel.vm_cost``)."""
        btus = self._billed()[0]
        return sum((btus * _vm_prices(self._plan_view())).tolist())

    def check_constraints(self, constraints) -> tuple:
        """Violations of *constraints* (a
        :class:`~repro.core.constraints.Constraints`) against this plan's
        makespan/cost/VM count; empty tuple means the plan is feasible.
        Realized (fault-/market-replayed) outcomes can still differ —
        the autotuner judges those, not the static plan.
        """
        return constraints.check(
            makespan=self.makespan,
            cost=self.total_cost,
            vm_count=self.vm_count,
        )

    def transfer_volumes(self) -> List[Tuple[str, str, float]]:
        """Cross-region edges as ``(src_region, dst_region, gb)``, in
        deterministic (parent, child) order."""
        if self._plan_view().zone is None:
            return []  # a single-region plan ships nothing across regions
        regions = self._vm_region
        index = self._index
        tvm = self._tvm
        out = []
        for u, v, gb in sorted(self.workflow.edges()):
            a, b = tvm[index[u]], tvm[index[v]]
            if a != b and regions[a].name != regions[b].name and gb > 0:
                out.append((regions[a].name, regions[b].name, gb))
        return out

    @property
    def transfer_cost(self) -> float:
        """Banded egress cost over the schedule's cross-region volume.

        Volumes are accumulated per source region in deterministic edge
        order, so the free first GB is consumed consistently.
        """
        billing = self.platform.billing
        totals: Dict[str, float] = {}
        cost = 0.0
        for src_name, dst_name, gb in self.transfer_volumes():
            src = self.platform.region(src_name)
            dst = self.platform.region(dst_name)
            already = totals.get(src_name, 0.0)
            cost += billing.transfer_cost(gb, src, dst, monthly_total_gb=already)
            totals[src_name] = already + gb
        return cost

    @property
    def total_cost(self) -> float:
        """Rent plus egress (memoized: the schedule is immutable)."""
        cost = self._total_cost
        if cost is None:
            cost = self.__dict__["_total_cost"] = self.rent_cost + self.transfer_cost
        return cost

    @property
    def total_idle_seconds(self) -> float:
        """Paid-but-unused VM time summed over all VMs (paper Fig. 5):
        per VM the paid time (``btus * btu_seconds``) minus the busy
        time, a sequential sum of its task durations in placement order."""
        return self._billed()[2]

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def validate(self) -> "Schedule":
        """Check full feasibility; raises :class:`InvalidScheduleError`.

        Memoized: the object is immutable, so a second call returns
        immediately (the fused kernels run the same :func:`check_plan`
        and hand the view they checked over).  It checks the one plan
        view that pricing and the verify certificate read.
        """
        if not self._checked:
            check_plan(self.workflow, self._plan_view(), self._vm_id)
            self.__dict__["_checked"] = True
        return self

    def _plan_view(self) -> "PlanView":
        """The plan as arrays, made on the first call and kept (a
        producer that checked the plan hands its view over)."""
        if self._plan is not None:
            return self._plan
        itypes = self._vm_itype
        nv = len(itypes)
        first = dict(zip(map(id, itypes), itypes))
        slot = dict(zip(first, count()))
        kind = np.fromiter(map(slot.__getitem__, map(id, itypes)), np.int64, nv)
        regions: Dict[str, Region] = {}
        for region in self._vm_region:
            regions.setdefault(region.name, region)
        zone = None
        if len(regions) > 1:
            code = dict(zip(regions, count()))
            names = map(_NAME, self._vm_region)
            zone = np.fromiter(map(code.__getitem__, names), np.int64, nv)
        view = self.__dict__["_plan"] = plan_view(
            self.workflow,
            self.platform.network,
            np.asarray(self._tvm, dtype=np.int64),
            np.asarray(self._start, dtype=np.float64),
            np.asarray(self._end, dtype=np.float64),
            np.asarray(self._vm_seq, dtype=np.int64),
            np.asarray(self._vm_ptr, dtype=np.int64),
            kind,
            list(first.values()),
            zone,
            list(regions.values()),
            np.asarray(self._vm_boot, dtype=np.float64),
        )
        return view

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Schedule({self.label}, vms={self.vm_count}, "
            f"makespan={self.makespan:.0f}s, cost=${self.total_cost:.2f})"
        )


class PlanView(NamedTuple):
    """A plan as arrays over its workflow's task index: per task its VM
    position, start and end; the tasks VM by VM (*seq*, VM ``v``'s at
    ``seq[ptr[v]:ptr[v + 1]]``) and, along *seq*, each one's VM, start
    and end (*qvm*, *qstart*, *qend*); per VM its slot (*kind*) in the
    fleet's distinct *flavors*, its slot (*zone*, ``None``: one region)
    in the fleet's distinct *regions*, told apart by name, and its boot
    time (*boot*, one float when every VM shares it); per task its
    runtime (*runt*) and per predecessor-CSR edge its transfer time
    (*moved*), the operands :func:`~repro.kernels.columnar.fleet_costs`
    gives."""

    tvm: np.ndarray
    start: np.ndarray
    end: np.ndarray
    seq: np.ndarray
    ptr: np.ndarray
    qvm: np.ndarray
    qstart: np.ndarray
    qend: np.ndarray
    kind: np.ndarray
    flavors: list
    zone: Optional[np.ndarray]
    regions: list
    boot: "np.ndarray | float"
    runt: np.ndarray
    moved: np.ndarray


def plan_view(
    workflow, network, tvm, start, end, seq, ptr, kind, flavors, zone, regions, boot
):
    """The :class:`PlanView` of a plan given by its arrays."""
    cd = get_columnar(workflow)
    runt, moved = fleet_costs(cd, network, tvm, kind, flavors, zone)
    return PlanView(
        tvm, start, end, seq, ptr, tvm[seq], start[seq], end[seq],
        kind, flavors, zone, regions, boot, runt, moved,
    )


def _vm_prices(view: PlanView):
    """Per VM its price per BTU, or the one price of a one-flavor,
    one-region fleet.  Each (flavor, region) pair the fleet uses is
    priced once, in the order of its first VM, so a missing price raises
    for the VM a walk over the VMs would stop at."""
    flavors, regions = view.flavors, view.regions
    if len(regions) == 1:
        region = regions[0]
        if len(flavors) == 1:
            return region.price(flavors[0])
        return np.array([region.price(f) for f in flavors])[view.kind]
    pair = view.kind * len(regions) + view.zone
    _, at, slot = np.unique(pair, return_index=True, return_inverse=True)
    prices = np.empty(len(at))
    for j in np.argsort(at).tolist():
        v = at[j]
        prices[j] = regions[view.zone[v]].price(flavors[view.kind[v]])
    return prices[slot]


def _vm_name(vm_ids, view: PlanView, v) -> str:
    """``VM.name`` of the VM at position *v* of the plan *view* whose
    VMs have the ids *vm_ids*."""
    return f"vm{vm_ids[v]}-{view.flavors[view.kind[v]].short}"


def check_plan(workflow, view: PlanView, vm_ids) -> None:
    """Raise :class:`InvalidScheduleError` on the first infeasibility of
    the plan *view* whose VMs have the ids *vm_ids*.

    First every start and finish must be finite (every comparison below
    is false on NaN).  Then each VM, in VM order, is checked for (a)
    overlaps between its tasks in start order, then (b) durations equal
    to the task's work over the VM flavor's speed-up; then (c) every
    edge, in ``Workflow.edges()`` order, for a child that starts no
    earlier than its parent's finish plus the transfer time.
    """
    start, end, seq = view.start, view.end, view.seq
    kind, flavors, runt, moved = view.kind, view.flavors, view.runt, view.moved
    cd = get_columnar(workflow)
    ids = cd.ids
    unset = ~(np.isfinite(start) & np.isfinite(end))
    if unset.any():
        t = unset.argmax()
        raise InvalidScheduleError(
            f"{ids[t]!r} runs from {start[t]} to {end[t]}: not a finite time"
        )

    vm_at = view.qvm
    inner = vm_at[:-1] == vm_at[1:]
    s = view.qstart
    if (inner & (s[1:] < s[:-1])).any():
        by_start = seq[np.lexsort((s, vm_at))]  # stable within a VM
        x, y = by_start[:-1], by_start[1:]
        overlap = inner & (end[x] > start[y] + _EPS)
    else:
        x, y = seq[:-1], seq[1:]
        overlap = inner & (view.qend[:-1] > s[1:] + _EPS)
    dur = end - start
    off = np.abs(dur - runt) > _EPS * np.maximum(1.0, runt)
    if overlap.any() or off.any():
        off = off[seq]
        j = off.argmax()  # the first wrong duration, if any
        if overlap.any():
            i = overlap.argmax()
            if not (off[j] and vm_at[j] < vm_at[i]):
                raise InvalidScheduleError(
                    f"{_vm_name(vm_ids, view, vm_at[i])}: "
                    f"{ids[x[i]]!r} and {ids[y[i]]!r} overlap"
                )
        v, t = vm_at[j], seq[j]
        raise InvalidScheduleError(
            f"{_vm_name(vm_ids, view, v)}: {ids[t]!r} runs {dur[t]:.6f}s, "
            f"expected {runt[t]:.6f}s on {flavors[kind[v]].name}"
        )
    src, dst = cd.pred_idx, cd.pred_dst
    late = start[dst] + _EPS < end[src] + moved
    if late.any():
        # the first late edge in ``edges()`` order: the least parent,
        # then its first late child in its successor row's order
        u = src[late].min()
        late &= src == u
        kids = set(map(ids.__getitem__, dst[late].tolist()))
        child = next(c for c in workflow._succ[ids[u]] if c in kids)
        e = (late & (dst == cd.index[child])).argmax()
        raise InvalidScheduleError(
            f"dependency violated: {child!r} starts at {start[dst[e]]:.3f} "
            f"but {ids[u]!r} finishes at {end[u]:.3f} + transfer {moved[e]:.3f}"
        )
