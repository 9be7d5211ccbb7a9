"""Simulation traces and their consistency checks.

The executor emits a :class:`TraceEvent` stream and summarizes it into a
:class:`SimulationResult`; :meth:`SimulationResult.check_against` proves
the dynamic execution reproduced the static schedule's timing — the
cross-validation invariant in DESIGN.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.core.schedule import Schedule
from repro.errors import SimulationError
from repro.util.totals import left_sum

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for hints only
    from repro.simulator.faults import FaultStats

_EPS = 1e-6


@dataclass(frozen=True)
class TraceEvent:
    """One observed simulation event."""

    time: float
    kind: str  # "vm_start" | "vm_boot" | "vm_boot_fail" | "transfer_start" | "transfer_end" | "task_start" | "task_fail" | "task_end" | "vm_crash" | "vm_stop"
    task_id: str = ""
    vm: str = ""
    detail: str = ""


@dataclass
class SimulationResult:
    """Observed timings of one simulated schedule execution."""

    events: List[TraceEvent] = field(default_factory=list)
    task_start: Dict[str, float] = field(default_factory=dict)
    task_finish: Dict[str, float] = field(default_factory=dict)
    vm_windows: Dict[str, Tuple[float, float]] = field(default_factory=dict)
    #: robustness accounting, populated only by fault-injected runs
    faults: Optional["FaultStats"] = None
    #: realized per-VM rent (crashed VMs billed to their BTU boundary),
    #: populated only by fault-injected runs
    vm_costs: Dict[str, float] = field(default_factory=dict)

    @property
    def makespan(self) -> float:
        if not self.task_finish:
            return 0.0
        return max(self.task_finish.values())

    @property
    def realized_cost(self) -> float:
        """Total realized rent of a fault-injected run (0 otherwise)."""
        return left_sum(self.vm_costs.values())

    def record(self, event: TraceEvent) -> None:
        self.events.append(event)
        if event.kind == "task_start":
            self.task_start[event.task_id] = event.time
        elif event.kind == "task_end":
            self.task_finish[event.task_id] = event.time

    def check_against(self, schedule: Schedule) -> None:
        """Verify the observed timings match the static schedule.

        Raises :class:`SimulationError` on the first divergence; a clean
        return certifies the schedule is executable exactly as planned.
        """
        for tid in schedule.workflow.task_ids:
            if tid not in self.task_finish:
                raise SimulationError(f"task {tid!r} never completed in simulation")
            planned_start = schedule.start(tid)
            planned_finish = schedule.finish(tid)
            got_start = self.task_start[tid]
            got_finish = self.task_finish[tid]
            if abs(got_start - planned_start) > _EPS * max(1.0, planned_start):
                raise SimulationError(
                    f"{tid!r}: simulated start {got_start:.6f} != "
                    f"planned {planned_start:.6f}"
                )
            if abs(got_finish - planned_finish) > _EPS * max(1.0, planned_finish):
                raise SimulationError(
                    f"{tid!r}: simulated finish {got_finish:.6f} != "
                    f"planned {planned_finish:.6f}"
                )
