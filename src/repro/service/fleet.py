"""Shared VM-fleet ownership: rent, reuse, idle-expiry, billing.

Historically every scheduling run owned its fleet privately — the
static :class:`~repro.core.builder.ScheduleBuilder` kept a ``vms`` list
and the online executor kept a ``fleet`` list, so VM state died with
the run.  A :class:`FleetManager` lifts that ownership out: it assigns
VM ids, stores the records, marks idle VMs dead at their BTU horizon,
and attributes rent to the tenant that requested each VM — so *many*
workflow executions (the WaaS service loop) can share one long-lived
fleet, while a run that builds its own private manager behaves exactly
as before.

The manager is deliberately mechanism, not policy: *which* VM a task
lands on stays with the provisioning policies; the manager only owns
the records and their lifecycle.  It imports nothing above the cloud
layer, so the static builder, the online executor and the service loop
can all depend on it without cycles.

Indexed hot path (DESIGN.md §14)
--------------------------------
A long service run rents tens of thousands of VMs, almost all of them
dead at any moment — but the original :meth:`reap` and :meth:`alive`
re-scanned the *entire* roster per placement, making the online path
O(tasks × fleet).  The manager now keeps incremental indexes, the
PR 4 stamp-guarded lazy-heap pattern applied to the live fleet:

* a **live-id set** maintained at rent/death, so liveness queries never
  touch dead records;
* an **expiry min-heap** of ``(horizon, id, stamp)`` entries keyed at
  the VM's BTU horizon, which the manager computes from the BTU it
  was built with; :meth:`reap` pops an entry once its horizon has
  passed and is O(k log n) for k expired/stale entries instead of
  O(fleet);
* a **busy-rank max-heap** over live VMs keyed by the policies'
  ``(busy_seconds, -id)`` tie-break, answering the StartPar* "most
  utilized VM" query as a stale-skipping peek;
* a **free-pool**: a min-heap by ``free_at`` feeding an idle max-heap
  by busy rank as simulation time passes, answering the AllPar*
  "most utilized *idle* VM (that fits)" query without scanning.

Every mutation bumps the VM's stamp (``note_use`` after a placement,
death at reap/crash), invalidating old heap entries lazily.  A rental
is indexed by the ``note_use`` of its first reservation, so a fresh
VM costs one push per heap; a VM rented but never used is indexed at
the next query instead.  The busy-rank heap and the free-pool are
built from the live set on their first query: a StartPar* run never
fills the AllPar* pool, and an AllPar* run never fills the rank heap.
The original full scans live on as the property-test oracle in
``tests/oracles/fleet_scan.py``: decision logs, service rollups and
metric counters are byte-identical between the two paths.

Closed VMs
----------
A service run rents one VM per task or so, and all but a few dozen are
dead at any moment.  The manager keeps a :class:`FleetVM` record only
while a VM is *open* (alive, or crashed and still being reclaimed by
the runs on its roster).  When a VM dies it is *closed*: what its bill
needs goes into flat per-id columns (``array('d')`` times, a code into
a small table of ``(flavor, renter, purchase)`` triples, a flags byte)
and the record is dropped, together with its task roster.
:attr:`FleetManager.vms` is a sequence over every id ever rented: a
live id yields its record, a closed id a frozen :class:`ClosedVM` row
view made on demand.  :meth:`FleetManager.finalize` bills the columns
in one numpy pass over views of them (DESIGN.md §14).
"""

from __future__ import annotations

import heapq
import math
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.cloud.billing import BTU_SECONDS, BillingModel
from repro.cloud.instance import InstanceType
from repro.cloud.region import Region
from repro.errors import SimulationError
from repro.util.totals import group_left_sums, left_sum

#: reap/idle comparisons share the executor's float slack
_EPS = 1e-9

#: closed-row flag bits
_CRASHED = 1
_PREEMPTED = 2

#: rows the close-time columns grow by when the rentals reach their end
_GROW = 4096

#: a rank heap holding more than this many entries per live VM (plus
#: ``_PRUNE_SLACK``) drops its stale ones; rebuild cost is amortized
#: over the pushes that made them
_PRUNE_FACTOR = 2
_PRUNE_SLACK = 64


@dataclass(slots=True)
class FleetVM:
    """One VM of a live (simulated) fleet.

    The record lives here, not in the online executor, so a fleet can
    outlive any one workflow run.  ``owner`` names the tenant whose
    submission rented the VM — the attribution key for per-tenant
    billing.
    """

    id: int
    itype: InstanceType
    started_at: float
    free_at: float
    busy_seconds: float = 0.0
    #: the unfinished reservations on this VM, in placement order, keyed
    #: ``(run, task id)``: a crash or spot warning reaches exactly the
    #: runs named here (values unused)
    tasks: Dict[Tuple[object, str], None] = field(default_factory=dict)
    dead: bool = False
    crashed: bool = False
    crashed_at: float = 0.0
    #: seconds of completed executions (fault accounting)
    useful_seconds: float = 0.0
    #: tenant whose workflow rented this VM ("" for single-run fleets)
    owner: str = ""
    #: how the VM was bought (a market ``PurchaseOption``); ``None``
    #: outside market runs — fixed-price on-demand billing
    purchase: object | None = None
    #: whether the crash was a spot reclamation (price crossing)
    preempted: bool = False

    def horizon(self, btu: float) -> float:
        """End of the last started BTU — deprovision time when idle."""
        uptime = max(self.free_at - self.started_at, 1e-9)
        return self.started_at + math.ceil(uptime / btu - 1e-9) * btu


@dataclass(frozen=True, slots=True)
class ClosedVM:
    """Read-only row view of a closed (dead) VM: the billed fields of
    its :class:`FleetVM` record at death, without the task roster.
    :attr:`FleetManager.vms` makes one on demand per access."""

    id: int
    itype: InstanceType
    started_at: float
    free_at: float
    busy_seconds: float
    useful_seconds: float
    owner: str
    purchase: object | None
    crashed: bool
    crashed_at: float
    preempted: bool

    #: the record's own arithmetic: when the VM was deprovisioned
    horizon = FleetVM.horizon

    @property
    def dead(self) -> bool:
        return True


class FleetRoster(Sequence):
    """:attr:`FleetManager.vms`: every VM ever rented, indexed by id.

    An open id yields its live :class:`FleetVM` record, a closed id a
    fresh :class:`ClosedVM` view of its bill row."""

    __slots__ = ("_fleet",)

    def __init__(self, fleet: "FleetManager") -> None:
        self._fleet = fleet

    def __len__(self) -> int:
        return len(self._fleet._start)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        n = len(self)
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError(f"fleet index {index} out of range ({n} VMs)")
        vm = self._fleet._open.get(index)
        return vm if vm is not None else self._fleet._row(index)


@dataclass(frozen=True)
class OwnerBill:
    """Realized rent attributed to one owner (tenant)."""

    owner: str
    vm_count: int
    btus: int
    rent_cost: float
    busy_seconds: float
    paid_seconds: float


@dataclass(frozen=True)
class FleetRollup:
    """Everything the service loop needs from one roster pass:
    per-owner bills, fleet utilization and the billing totals."""

    bills: Dict[str, OwnerBill]
    utilization: float
    btus: int
    rent_cost: float


class FleetManager:
    """Owns a fleet of :class:`FleetVM` records shared across runs.

    One manager may back a single online run (the executor builds a
    private one by default — byte-identical to the pre-lift behavior)
    or a whole service loop, where per-workflow executors rent from and
    reuse the same live fleet.

    Index upkeep is one push per heap per reservation: :meth:`rent`
    only records the VM, and the executor's :meth:`note_use` for the
    first reservation indexes it.  The StartPar* rank heap and the
    AllPar* free-pool are built on their first query, so a run pays only
    for the index its policy reads.

    *btu* is the billing quantum the manager reaps at (the platform's
    ``btu_seconds``); :func:`fleet_for` builds or checks the manager of
    a run.
    """

    def __init__(self, region: Region | None = None, btu: float = BTU_SECONDS) -> None:
        if not 0 < btu < math.inf:  # also rejects NaN
            raise SimulationError(f"fleet BTU must be positive and finite, got {btu}")
        self.region = region
        self.btu = btu
        #: every VM ever rented, by id (records for open ids, row views
        #: for closed ones)
        self.vms = FleetRoster(self)
        #: records of the VMs not closed yet, by id
        self._open: Dict[int, FleetVM] = {}
        # --- per-id bill columns: start and kind are written at rent;
        # the rest when the VM closes (or by finalize), into rows that
        # _grow() adds ahead of the rentals ---------------------------
        self._start = array("d")
        self._free = array("d")
        self._busy = array("d")
        self._useful = array("d")
        #: index into ``_kinds``: the (flavor, renter, purchase) triple
        self._kind = array("i")
        #: ``_CRASHED`` | ``_PREEMPTED`` bits
        self._flags = array("B")
        #: crash times of the crashed closed VMs
        self._crashed_at: Dict[int, float] = {}
        self._kinds: List[Tuple[InstanceType, str, object]] = []
        self._kind_code: Dict[tuple, int] = {}
        #: attach numbers handed out so far (see attach())
        self._attached = 0
        #: warm-pool acquisitions consumed so far, by flavor name
        self.warm_used: Dict[str, int] = {}
        # --- incremental fleet indexes ------------------------------
        #: ids of living VMs
        self._live: set = set()
        #: per-VM entry stamp; heap entries with an older stamp are
        #: dropped lazily on pop (the PR 4 busy-heap pattern)
        self._stamp: List[int] = []
        #: ids rented since the last query; the ones still at stamp 0
        #: (never noted) are indexed by _index_fresh()
        self._fresh: List[int] = []
        #: min-heap of (horizon, id, stamp) — see reap()
        self._expiry: List[Tuple[float, int, int]] = []
        #: max-heap (negated) of (busy_seconds, -id) over live VMs;
        #: ``None`` until the first max_busy_alive()
        self._rank: Optional[List[Tuple[float, int, int]]] = None
        #: min-heap by free_at of live VMs not yet promoted to idle;
        #: ``None`` until the first best_idle()
        self._free_pool: Optional[List[Tuple[float, int, int]]] = None
        #: max-heap (negated busy rank) of live VMs known idle
        self._idle_rank: List[Tuple[float, int, int]] = []
        # --- incremental tallies (counters()) -----------------------
        self.crashed_count = 0
        self.preempted_count = 0
        self.reaped_count = 0

    # ------------------------------------------------------------------
    # live-fleet lifecycle
    # ------------------------------------------------------------------
    def rent(
        self,
        itype: InstanceType,
        started_at: float,
        free_at: float,
        owner: str = "",
        purchase: object | None = None,
    ) -> FleetVM:
        """Create the next VM record; ids are fleet-global and dense."""
        vid = len(self._start)
        vm = FleetVM(
            id=vid,
            itype=itype,
            started_at=started_at,
            free_at=free_at,
            owner=owner,
            purchase=purchase,
        )
        self._open[vid] = vm
        # flavors are shared objects (keyed by identity); purchases are
        # frozen values, so each rebid's fresh option reuses its code
        key = (id(itype), owner, purchase)
        code = self._kind_code.get(key)
        if code is None:
            code = self._kind_code[key] = len(self._kinds)
            self._kinds.append((itype, owner, purchase))
        self._start.append(started_at)
        self._kind.append(code)
        if vid == len(self._flags):
            self._grow()
        self._live.add(vid)
        self._stamp.append(0)
        self._fresh.append(vid)
        return vm

    def note_use(self, vm: FleetVM) -> None:
        """Re-index *vm* after a placement extended its ``free_at`` /
        ``busy_seconds``.  Executors call this for every reservation on
        a live VM (crash bookkeeping on dead VMs needs no note — death
        already invalidated every entry)."""
        if vm.dead:
            return
        stamp = self._stamp[vm.id] + 1
        self._stamp[vm.id] = stamp
        self._push(vm, stamp)

    def _push(self, vm: FleetVM, stamp: int) -> None:
        """Index *vm*'s current state under *stamp* in every heap that
        exists yet; the expiry entry is keyed at the VM's BTU horizon."""
        heapq.heappush(self._expiry, (vm.horizon(self.btu), vm.id, stamp))
        rank = self._rank
        if rank is not None:
            heapq.heappush(rank, (-vm.busy_seconds, vm.id, stamp))
            if len(rank) > _PRUNE_FACTOR * len(self._live) + _PRUNE_SLACK:
                self._prune(rank)
        if self._free_pool is not None:
            heapq.heappush(self._free_pool, (vm.free_at, vm.id, stamp))

    def _prune(self, heap: List[Tuple[float, int, int]]) -> None:
        """Drop *heap*'s stale entries; callers prune a rank heap once
        it holds more than ``_PRUNE_FACTOR`` entries per live VM.

        Peeks pop stale entries only off the top, so without this a
        rank heap keeps one entry per past reservation, dead VMs' too.
        A query answers the smallest current entry (ids make them
        distinct), so pruning never changes an answer."""
        stamps = self._stamp
        heap[:] = [e for e in heap if stamps[e[1]] == e[2]]
        heapq.heapify(heap)

    def _index_fresh(self) -> None:
        """Index the rentals no reservation has noted yet and that are
        still alive (stamp 0), as the first ``note_use`` would have."""
        stamps, records = self._stamp, self._open
        for vid in self._fresh:
            if stamps[vid] == 0:
                self._push(records[vid], 0)
        self._fresh.clear()

    def take_warm(self, itype: InstanceType, pool: int) -> bool:
        """Claim one warm-pool slot for a new *itype* acquisition.

        The pool is fleet-global (the provider keeps a few instances
        warm per flavor): the first *pool* acquisitions of each flavor
        across *all* runs sharing this manager boot warm.  Returns
        whether the claim succeeded.
        """
        if pool <= 0:
            return False
        used = self.warm_used.get(itype.name, 0)
        if used >= pool:
            return False
        self.warm_used[itype.name] = used + 1
        return True

    @property
    def live_count(self) -> int:
        """Number of living VMs (O(1))."""
        return len(self._live)

    def alive(self, owner: str | None = None) -> List[FleetVM]:
        """Living VMs in rental order; *owner* restricts to one tenant's
        rentals (tenant-scoped sharing)."""
        records = self._open
        live = [records[i] for i in sorted(self._live)]
        if owner is None:
            return live
        return [vm for vm in live if vm.owner == owner]

    def live_vm(self, vm_id: int) -> Optional[FleetVM]:
        """The record of VM *vm_id* if it is alive, else ``None`` —
        liveness without a row view."""
        vm = self._open.get(vm_id)
        return None if vm is None or vm.dead else vm

    def itype_of(self, vm_id: int) -> InstanceType:
        """The flavor of VM *vm_id*, open or closed, without a row view."""
        return self._kinds[self._kind[vm_id]][0]

    def _retire(self, vm: FleetVM) -> None:
        """Mark *vm* dead and invalidate its indexes (the single kill
        path shared by reap and crash)."""
        vm.dead = True
        self._live.discard(vm.id)
        self._stamp[vm.id] += 1

    def _grow(self) -> None:
        """Add ``_GROW`` zeroed rows to the columns written at close, so
        a rental appends to two columns only."""
        zeros = bytes(8 * _GROW)
        for column in (self._free, self._busy, self._useful):
            column.frombytes(zeros)
        self._flags.frombytes(bytes(_GROW))

    def _write_row(self, vm: FleetVM) -> None:
        """Copy *vm*'s changing billed fields into its column row."""
        vid = vm.id
        self._free[vid] = vm.free_at
        self._busy[vid] = vm.busy_seconds
        self._useful[vid] = vm.useful_seconds
        self._flags[vid] = vm.crashed * _CRASHED | vm.preempted * _PREEMPTED
        if vm.crashed:
            self._crashed_at[vid] = vm.crashed_at

    def _close(self, vm: FleetVM) -> None:
        """Bill-row *vm* (dead) into the columns and drop its record."""
        self._write_row(vm)
        del self._open[vm.id]

    def _row(self, vid: int) -> ClosedVM:
        """A row view of closed VM *vid*."""
        itype, owner, purchase = self._kinds[self._kind[vid]]
        flags = self._flags[vid]
        return ClosedVM(
            id=vid,
            itype=itype,
            started_at=self._start[vid],
            free_at=self._free[vid],
            busy_seconds=self._busy[vid],
            useful_seconds=self._useful[vid],
            owner=owner,
            purchase=purchase,
            crashed=bool(flags & _CRASHED),
            crashed_at=self._crashed_at.get(vid, 0.0),
            preempted=bool(flags & _PREEMPTED),
        )

    def reap(self, now: float) -> List[FleetVM]:
        """Mark VMs idle past their BTU horizon dead and close them;
        returns the newly dead records in roster order (callers record
        their own ``vm_stop`` events).

        Pops the expiry heap while the top entry's key has passed.  A
        current entry (stamp match) is keyed at its VM's horizon, and
        the VM's ``free_at`` has not moved since (a reservation bumps
        the stamp), so its horizon has passed: the VM is reaped unless
        it is still busy.  That happens only in the 1e-9 band where
        ``free_at`` lies just past its last BTU boundary, above the
        horizon; the entry goes back unchanged after the pops, so every
        later reap looks at the VM again and reaps it once ``free_at <=
        now`` — the scan's rule exactly.  O(k log n) for k expired +
        stale entries, instead of an O(fleet) roster scan.
        """
        if self._fresh:
            self._index_fresh()
        reaped: List[FleetVM] = []
        heap = self._expiry
        stamps, records = self._stamp, self._open
        busy: List[Tuple[float, int, int]] = []
        cutoff = now - _EPS
        while heap and heap[0][0] < cutoff:
            entry = heapq.heappop(heap)
            _, vid, stamp = entry
            if stamp != stamps[vid]:
                continue  # superseded by reuse or death
            vm = records[vid]
            if vm.free_at <= now:
                self._retire(vm)
                self._close(vm)
                self.reaped_count += 1
                reaped.append(vm)
            else:  # the band: pushed back once this reap has popped
                busy.append(entry)
        for entry in busy:
            heapq.heappush(heap, entry)
        if len(reaped) > 1:
            reaped.sort(key=lambda v: v.id)
        return reaped

    # ------------------------------------------------------------------
    # indexed candidate queries (the executors' placement hot path)
    # ------------------------------------------------------------------
    def max_busy_alive(self) -> Optional[FleetVM]:
        """The live VM maximizing ``(busy_seconds, -id)`` — the
        StartPar* reuse target — as a stale-skipping heap peek."""
        if self._fresh:
            self._index_fresh()
        heap = self._rank
        if heap is None:
            heap = self._rank = self._live_entries(
                lambda vm: -vm.busy_seconds
            )
        stamps = self._stamp
        while heap:
            _, vid, stamp = heap[0]
            if stamp != stamps[vid]:
                heapq.heappop(heap)
                continue
            return self._open[vid]
        return None

    def best_idle(
        self, now: float, fits: Callable[[FleetVM], bool] | None = None
    ) -> Optional[FleetVM]:
        """The idle live VM maximizing ``(busy_seconds, -id)`` that
        passes *fits* — the AllPar* candidate query.

        VMs migrate from the free-pool (ordered by ``free_at``) into
        the idle rank heap as the clock passes their reservations; a
        reuse bumps the stamp, so a reused VM's idle entry dies lazily.
        Entries rejected by *fits* stay idle and are pushed back.
        """
        if self._fresh:
            self._index_fresh()
        pool, stamps, records = self._free_pool, self._stamp, self._open
        if pool is None:
            pool = self._free_pool = self._live_entries(lambda vm: vm.free_at)
        idle = self._idle_rank
        while pool and pool[0][0] <= now + _EPS:
            _, vid, stamp = heapq.heappop(pool)
            if stamp != stamps[vid]:
                continue
            vm = records[vid]
            heapq.heappush(idle, (-vm.busy_seconds, vid, stamp))
        if len(idle) > _PRUNE_FACTOR * len(self._live) + _PRUNE_SLACK:
            self._prune(idle)
        rejected: List[Tuple[float, int, int]] = []
        found: Optional[FleetVM] = None
        while idle:
            entry = heapq.heappop(idle)
            _, vid, stamp = entry
            if stamp != stamps[vid]:
                continue
            vm = records[vid]
            if fits is not None and not fits(vm):
                rejected.append(entry)
                continue
            found = vm
            heapq.heappush(idle, entry)  # idle until its next reuse
            break
        for entry in rejected:
            heapq.heappush(idle, entry)
        return found

    def _live_entries(
        self, key: Callable[[FleetVM], float]
    ) -> List[Tuple[float, int, int]]:
        """A heap holding the current entry of every live VM — what a
        heap fed by every ``note_use`` since the start would hold, minus
        the stale entries."""
        records, stamps = self._open, self._stamp
        heap = [(key(records[vid]), vid, stamps[vid]) for vid in self._live]
        heapq.heapify(heap)
        return heap

    def mark_crashed(self, vm: FleetVM, now: float) -> None:
        """Void a VM at *now*; notify_crash() has its runs reclaim their
        reservations."""
        vm.crashed = True
        vm.crashed_at = now
        self._retire(vm)
        self.crashed_count += 1

    # ------------------------------------------------------------------
    # crash fan-out (shared fleets host tasks of many runs)
    # ------------------------------------------------------------------
    def attach(self) -> int:
        """The next attach number, which a run sharing this fleet takes
        at construction (as ``attach_no``): crash and warning fan-out
        reach a VM's runs in this order, so recovery interleaving is
        deterministic."""
        self._attached += 1
        return self._attached

    @staticmethod
    def _runs_on(vm: FleetVM) -> list:
        """The distinct runs holding reservations on *vm*, attach order."""
        return sorted({run for run, _ in vm.tasks}, key=lambda run: run.attach_no)

    def notify_crash(self, vm: FleetVM) -> None:
        """Have every run on *vm*'s roster reclaim its reservations, then
        close the crashed VM: the runs read its roster and correct its
        ``busy_seconds``, so it stays open until they all return."""
        if vm.preempted:
            self.preempted_count += 1
        for run in self._runs_on(vm):
            run.reclaim(vm)
        self._close(vm)

    def notify_warning(self, vm: FleetVM) -> None:
        """Fan a spot reclamation warning out to every run on *vm*'s
        roster, so each can checkpoint its work before the kill."""
        for run in self._runs_on(vm):
            run.checkpoint(vm)

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def uptime(self, vm: "FleetVM | ClosedVM") -> float:
        """Billable uptime: rent stops at the crash for crashed VMs."""
        end = vm.crashed_at if vm.crashed else vm.free_at
        return max(end - vm.started_at, 0.0)

    def counters(self) -> Dict[str, int]:
        """O(1) fleet tallies, maintained incrementally (no roster
        scan): total rentals, live/crashed/preempted/reaped counts."""
        return {
            "vms": len(self._start),
            "alive": len(self._live),
            "crashed": self.crashed_count,
            "preempted": self.preempted_count,
            "reaped": self.reaped_count,
        }

    def finalize(
        self,
        billing: BillingModel,
        region: Region | None = None,
        market: object | None = None,
        seed: int = 0,
    ) -> FleetRollup:
        """Bills, utilization and conservation in **one** numpy pass
        over views of the bill columns.

        Each VM's cost goes to the tenant that rented it (reuse by
        another tenant's tasks extends ``busy_seconds`` but never moves
        the bill — the renter keeps the meter).  With a *market* (a
        :class:`~repro.market.spot.Market`), VMs carrying a purchase
        option are billed at the realized price integral under *seed*;
        all others pay whole BTUs at the region's list price, the
        sealed :class:`BillingModel` arithmetic done per column.  Every
        total adds its VMs in id order from 0.0, as one loop over the
        roster would.  Records still open are written to their rows
        first: dead ones are closed, live ones stay open.

        Raises :class:`SimulationError` unless the fleet bookkeeping is
        conserved: dense ids, crashed ⊆ dead, and no VM freed before it
        started.
        """
        region = region or self.region
        n = len(self._start)
        if region is None and n:
            raise SimulationError("finalize() needs a region (none configured)")
        for vid, vm in list(self._open.items()):
            if vm.id != vid:
                raise SimulationError(f"fleet ids not dense: vm{vm.id} at slot {vid}")
            if vm.crashed and not vm.dead:
                raise SimulationError(f"vm{vid} crashed but not dead")
            if vm.dead:
                self._close(vm)
            else:
                self._write_row(vm)
        # checked before any view of the columns is bound: a raise then
        # leaves no frame that keeps them from growing
        late = np.flatnonzero(
            np.frombuffer(self._free)[:n] < np.frombuffer(self._start) - _EPS
        )
        if late.size:
            vid = int(late[0])
            raise SimulationError(
                f"vm{vid} freed at {self._free[vid]} before start {self._start[vid]}"
            )
        start = np.frombuffer(self._start)
        busy = np.frombuffer(self._busy)[:n]
        kind = np.frombuffer(self._kind, dtype=np.intc)
        # uptime: rent stops at the crash for a crashed VM
        up = np.frombuffer(self._free)[:n] - start
        crashed = self._crashed_at
        if crashed:
            ids = np.fromiter(crashed, np.intp, len(crashed))
            up[ids] = np.fromiter(crashed.values(), float, len(crashed)) - start[ids]
        np.maximum(up, 0.0, out=up)
        # BillingModel.btus per VM: a VM that ran at all pays >= 1 BTU
        btu = billing.btu_seconds
        units = up / btu
        units -= 1e-9
        np.ceil(units, out=units)
        np.maximum(units, 1.0, out=units)
        units[up == 0.0] = 0.0
        # per kind code: the renter's slot, and whether the market bills
        kinds = self._kinds
        owners = sorted({owner for _, owner, _ in kinds})
        slot = {owner: i for i, owner in enumerate(owners)}
        owner_ix = np.array([slot[owner] for _, owner, _ in kinds], np.intp)[kind]
        by_market = [market is not None and p is not None for *_, p in kinds]
        realized = {}
        if any(by_market):
            for vid in np.flatnonzero(np.array(by_market)[kind]).tolist():
                itype, _, purchase = kinds[kind[vid]]
                realized[vid] = billing.realized_cost(
                    float(up[vid]), itype, region, self._start[vid], purchase, market, seed
                )
        # list-price rent: whole BTUs at the price of the VM's flavor
        price = [0.0 if m else region.price(t) for (t, _, _), m in zip(kinds, by_market)]
        cost = np.array(price)[kind]
        cost *= units
        for vid, value in realized.items():
            cost[vid] = value
        paid = np.multiply(units, btu, out=up)  # the uptime is read no more
        k = len(owners)
        vm_counts = np.bincount(owner_ix, minlength=k).tolist()
        btu_sums = group_left_sums(owner_ix, units, k).tolist()
        cost_sums = group_left_sums(owner_ix, cost, k).tolist()
        busy_sums = group_left_sums(owner_ix, busy, k).tolist()
        paid_sums = group_left_sums(owner_ix, paid, k).tolist()
        whole = np.zeros(n, np.intp)  # the fleet as one group
        busy_total = float(group_left_sums(whole, busy, 1)[0])
        paid_total = float(group_left_sums(whole, paid, 1)[0])
        bills = {
            owner: OwnerBill(
                owner=owner,
                vm_count=vm_counts[i],
                btus=int(btu_sums[i]),
                rent_cost=cost_sums[i],
                busy_seconds=busy_sums[i],
                paid_seconds=paid_sums[i],
            )
            for i, owner in enumerate(owners)
        }
        return FleetRollup(
            bills=bills,
            utilization=busy_total / paid_total if paid_total > 0 else 0.0,
            btus=sum(b.btus for b in bills.values()),
            rent_cost=left_sum(b.rent_cost for b in bills.values()),
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"FleetManager(vms={len(self._start)}, alive={len(self._live)})"


def fleet_for(
    fleet: FleetManager | None, region: Region | None, btu: float
) -> FleetManager:
    """The fleet a run rents from: *fleet* when given, which must reap
    at the platform's *btu*, else a new private manager for *region*."""
    if fleet is None:
        return FleetManager(region=region, btu=btu)
    if fleet.btu != btu:
        raise SimulationError(
            f"fleet reaps at a {fleet.btu} s BTU but the platform bills {btu} s"
        )
    return fleet
