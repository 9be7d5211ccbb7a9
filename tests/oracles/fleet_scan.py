"""Full-roster scan oracle for the indexed fleet kernels.

:class:`~repro.service.fleet.FleetManager` answers reap and placement
queries from incremental indexes, and closes every dead VM into bill
columns.  The code before those changes kept every record and walked
the roster instead; these subclasses keep that walk as the reference
``tests/service/test_fleet_index.py``, ``tests/service/test_fleet_close.py``
and ``benchmarks/bench_service.py`` compare the indexed path against
(same decisions, same rollups, same counters, bit-equal floats).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, List

from repro.errors import SimulationError
from repro.service import loop as service_loop
from repro.service.fleet import _EPS, FleetManager, FleetRollup, FleetVM, OwnerBill
from repro.simulator.online import OnlineCloudExecutor


class ScanFleetManager(FleetManager):
    """A fleet that keeps every record (closing nothing) and whose
    reap, utilization and finalize walk the whole roster."""

    def _close(self, vm: FleetVM) -> None:
        """Keep the dead record: ``vms`` stays a roster of records."""

    def reap(self, now: float) -> List[FleetVM]:
        reaped: List[FleetVM] = []
        for vm in self._open.values():  # every record, in id order
            if not vm.dead and vm.free_at <= now and vm.horizon(self.btu) < now - _EPS:
                self._retire(vm)
                self.reaped_count += 1
                reaped.append(vm)
        return reaped

    def finalize(self, billing, region=None, market=None, seed=0) -> FleetRollup:
        """The record walk the bill columns replaced: same checks, same
        addends in the same (id) order."""
        region = region or self.region
        if region is None and len(self.vms):
            raise SimulationError("finalize() needs a region (none configured)")
        rows: Dict[str, Dict[str, float]] = {}
        busy_total = 0.0
        paid_total = 0.0
        for idx, vm in enumerate(self.vms):
            if vm.id != idx:
                raise SimulationError(f"fleet ids not dense: vm{vm.id} at slot {idx}")
            if vm.crashed and not vm.dead:
                raise SimulationError(f"vm{vm.id} crashed but not dead")
            if vm.free_at < vm.started_at - _EPS:
                raise SimulationError(
                    f"vm{vm.id} freed at {vm.free_at} before start {vm.started_at}"
                )
            up = self.uptime(vm)
            paid = billing.paid_seconds(up)
            cost = billing.realized_cost(
                up, vm.itype, region, vm.started_at, vm.purchase, market, seed
            )
            acc = rows.setdefault(
                vm.owner,
                {"vms": 0, "btus": 0, "cost": 0.0, "busy": 0.0, "paid": 0.0},
            )
            acc["vms"] += 1
            acc["btus"] += billing.btus(up)
            acc["cost"] += cost
            acc["busy"] += vm.busy_seconds
            acc["paid"] += paid
            busy_total += vm.busy_seconds
            paid_total += paid
        bills = {
            owner: OwnerBill(
                owner=owner,
                vm_count=int(acc["vms"]),
                btus=int(acc["btus"]),
                rent_cost=acc["cost"],
                busy_seconds=acc["busy"],
                paid_seconds=acc["paid"],
            )
            for owner, acc in sorted(rows.items())
        }
        rent_cost = 0  # left to right, as builtin ``sum`` up to 3.11
        for b in bills.values():
            rent_cost += b.rent_cost
        return FleetRollup(
            bills=bills,
            utilization=busy_total / paid_total if paid_total > 0 else 0.0,
            btus=sum(b.btus for b in bills.values()),
            rent_cost=rent_cost,
        )

    def utilization(self, billing) -> float:
        """Busy seconds over paid seconds across the fleet (0 when the
        fleet never rented anything)."""
        busy = 0.0
        paid = 0.0
        for vm in self.vms:
            busy += vm.busy_seconds
            paid += billing.paid_seconds(self.uptime(vm))
        if paid <= 0:
            return 0.0
        return busy / paid


class ScanOnlineExecutor(OnlineCloudExecutor):
    """An online executor that picks VMs by scanning the live fleet."""

    def _select_vm(self, task_id: str, duration: float) -> FleetVM:
        self._reap()
        alive = self._fleet_mgr.alive()
        if self.policy == "OneVMperTask":
            return self._rent()
        if self.policy.startswith("StartPar"):
            if not self.workflow.predecessors(task_id) or not alive:
                return self._rent()
            target = max(alive, key=lambda v: (v.busy_seconds, -v.id))
            if self.policy.endswith("Exceed") and not self.policy.endswith(
                "NotExceed"
            ):
                return target
            return target if self._fits_btu(target, duration) else self._rent()
        lvl = self.levels[task_id]
        now = self.sim.now
        if self.level_sizes[lvl] > 1:
            candidates = [vm for vm in alive if vm.free_at <= now + 1e-9]
        else:
            pred_vm = self._largest_pred_vm(task_id)
            candidates = [pred_vm] if pred_vm is not None and not pred_vm.dead else []
        if self.policy == "AllParNotExceed":
            candidates = [vm for vm in candidates if self._fits_btu(vm, duration)]
        if not candidates:
            return self._rent()
        pred_vm = self._largest_pred_vm(task_id)
        if pred_vm is not None and pred_vm in candidates:
            return pred_vm
        return max(candidates, key=lambda v: (v.busy_seconds, -v.id))


@contextmanager
def scan_service_executors():
    """Make :mod:`repro.service.loop` run every admitted workflow on a
    :class:`ScanOnlineExecutor` while the context is active."""
    saved = service_loop.OnlineCloudExecutor
    service_loop.OnlineCloudExecutor = ScanOnlineExecutor
    try:
        yield
    finally:
        service_loop.OnlineCloudExecutor = saved
