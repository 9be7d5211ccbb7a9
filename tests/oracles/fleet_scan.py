"""Full-roster scan oracle for the indexed fleet kernels.

:class:`~repro.service.fleet.FleetManager` answers reap and placement
queries from incremental indexes.  The code before those indexes walked
the roster instead; these subclasses keep that walk as the reference
``tests/service/test_fleet_index.py`` and ``benchmarks/bench_service.py``
compare the indexed path against (same decisions, same rollups, same
counters, bit-equal floats).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import List

from repro.service import loop as service_loop
from repro.service.fleet import _EPS, FleetManager, FleetVM
from repro.simulator.online import OnlineCloudExecutor


class ScanFleetManager(FleetManager):
    """A fleet whose reap and utilization walk the whole roster."""

    def reap(self, now: float, btu: float) -> List[FleetVM]:
        reaped: List[FleetVM] = []
        for vm in self.vms:
            if not vm.dead and vm.free_at <= now and vm.horizon(btu) < now - _EPS:
                self._retire(vm, vm.free_at)
                self.reaped_count += 1
                reaped.append(vm)
        return reaped

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
