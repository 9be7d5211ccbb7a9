"""Robustness studies: how do static schedules hold up when execution
times deviate from the estimates they were built on?

The paper's scheduling is fully static (Sect. IV-A); this module probes
the cost of that choice.  A schedule's *decisions* (assignments +
per-VM orders) are kept, the *actual* runtimes are perturbed, and the
discrete-event executor re-derives the realized makespan.  Policies
that serialize aggressively accumulate delays along their shared VMs;
one-VM-per-task schedules only propagate delay along dependency paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

import numpy as np

from repro.core.schedule import Schedule
from repro.errors import SimulationError
from repro.simulator.executor import ScheduleExecutor
from repro.util.rng import ensure_rng, spawn_rngs


def lognormal_jitter(rel_std: float, seed=None):
    """Multiplicative log-normal noise with mean 1 and the given
    relative standard deviation — durations stay positive."""
    if not math.isfinite(rel_std):
        raise SimulationError(f"rel_std must be finite, got {rel_std}")
    if rel_std < 0:
        raise SimulationError(f"rel_std must be >= 0, got {rel_std}")
    rng = ensure_rng(seed)
    sigma2 = np.log1p(rel_std**2)
    mu = -sigma2 / 2.0  # E[lognormal(mu, sigma)] = 1

    def runtime_fn(task_id: str, planned: float) -> float:
        return planned * float(rng.lognormal(mu, np.sqrt(sigma2)))

    return runtime_fn


@dataclass(frozen=True)
class RobustnessReport:
    """Realized makespans of a schedule under runtime noise."""

    planned_makespan: float
    realized_makespans: List[float]

    @property
    def mean_stretch(self) -> float:
        """Mean realized/planned makespan ratio."""
        return float(np.mean(self.realized_makespans)) / self.planned_makespan

    @property
    def worst_stretch(self) -> float:
        return max(self.realized_makespans) / self.planned_makespan

    @property
    def p95_stretch(self) -> float:
        return float(np.quantile(self.realized_makespans, 0.95)) / self.planned_makespan


def robustness_study(
    schedule: Schedule,
    rel_std: float = 0.2,
    trials: int = 20,
    seed: int = 0,
) -> RobustnessReport:
    """Execute *schedule* *trials* times under log-normal runtime noise
    and report the realized-makespan distribution."""
    if trials < 1:
        raise SimulationError(f"trials must be >= 1, got {trials}")
    realized = []
    for rng in spawn_rngs(seed, trials):
        executor = ScheduleExecutor(
            schedule, runtime_fn=lognormal_jitter(rel_std, rng)
        )
        realized.append(executor.run().makespan)
    return RobustnessReport(
        planned_makespan=schedule.makespan, realized_makespans=realized
    )
