"""Discrete-event simulation substrate — the reproduction of the
paper's "custom made simulator": an event-queue engine plus an executor
that replays a static schedule (assignments + per-VM order) through
task-ready/transfer/completion dynamics and reports observed timings."""

from repro.simulator.engine import Simulator
from repro.simulator.events import ScheduledEvent
from repro.simulator.trace import TraceEvent, SimulationResult
from repro.simulator.executor import (
    ScheduleExecutor,
    run_with_faults,
    simulate_schedule,
)
from repro.simulator.faults import FaultPlan, FaultStats
from repro.simulator.perturb import (
    RobustnessReport,
    lognormal_jitter,
    robustness_study,
)
from repro.simulator.online import (
    OnlineCloudExecutor,
    OnlineResult,
    online_to_schedule,
    run_online,
)

__all__ = [
    "Simulator",
    "ScheduledEvent",
    "TraceEvent",
    "SimulationResult",
    "ScheduleExecutor",
    "simulate_schedule",
    "run_with_faults",
    "FaultPlan",
    "FaultStats",
    "RobustnessReport",
    "lognormal_jitter",
    "robustness_study",
    "OnlineCloudExecutor",
    "OnlineResult",
    "online_to_schedule",
    "run_online",
]
