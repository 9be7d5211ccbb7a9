"""Fault-intensity sweep: ranking provisioning policies under failure.

The paper ranks its five provisioning policies assuming perfectly
reliable VMs.  This experiment re-ranks them when faults fire: each
(policy, workflow) schedule is replayed through the fault-injected
:class:`~repro.simulator.executor.ScheduleExecutor` over a grid of fault
*intensities* (scaling a base :class:`~repro.simulator.faults.FaultPlan`)
and several fault *seeds* (replicating the sample at fixed intensity),
under one :mod:`~repro.core.recovery` policy.  The summary reports, per
(policy, intensity): failure counts, retries, wasted BTU-seconds, and
the realized-vs-planned makespan and cost deltas — the robustness
counterpart of the paper's Figure 4/5 rankings.

Every cell is an independent work unit, fanned out over an
:class:`~repro.experiments.parallel.ExecutionBackend` through the same
guarded map the main sweep uses, so one aborted cell (a recovery policy
exhausting its attempt budget at very high intensity) yields a captured
failure, not a dead sweep.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.cloud.platform import CloudPlatform
from repro.errors import ExperimentError
from repro.experiments.config import StrategySpec, strategy
from repro.experiments.parallel import (
    CellFailure,
    ExecutionBackend,
    make_backend,
    map_guarded,
)
from repro.experiments.result import ResultBase
from repro.simulator.executor import ScheduleExecutor
from repro.simulator.faults import FaultPlan, FaultStats
from repro.util.tables import format_table
from repro.workflows.dag import Workflow

#: the five provisioning policies of the paper, at the small size — the
#: axis the robustness ranking compares
FAULT_POLICY_LABELS = (
    "OneVMperTask-s",
    "StartParNotExceed-s",
    "StartParExceed-s",
    "AllParNotExceed-s",
    "AllParExceed-s",
)

#: default intensity grid: the zero-fault control plus three levels
DEFAULT_INTENSITIES = (0.0, 0.5, 1.0, 2.0)


@dataclass(frozen=True)
class FaultCell:
    """One (strategy, intensity, fault seed) unit of the fault grid."""

    spec: StrategySpec
    workflow_name: str
    workflow: Workflow
    platform: CloudPlatform
    base_plan: FaultPlan
    intensity: float
    fault_seed: int
    recovery: str = "retry"


@dataclass(frozen=True)
class FaultCellResult:
    """Realized outcome of one fault-injected replay."""

    strategy: str
    workflow: str
    intensity: float
    fault_seed: int
    recovery: str
    planned_makespan: float
    planned_cost: float
    makespan: float
    cost: float
    stats: FaultStats

    @property
    def makespan_delta(self) -> float:
        """Realized minus planned makespan, seconds."""
        return self.makespan - self.planned_makespan

    @property
    def cost_delta(self) -> float:
        """Realized minus planned rent, USD."""
        return self.cost - self.planned_cost


def run_fault_cell(cell: FaultCell) -> FaultCellResult:
    """Build the schedule and replay it under the cell's fault sample
    (worker entry point — everything it touches pickles)."""
    sched = cell.spec.run(cell.workflow, cell.platform)
    plan = cell.base_plan.scaled(cell.intensity).with_seed(cell.fault_seed)
    result = ScheduleExecutor(
        sched, fault_plan=plan, recovery=cell.recovery
    ).run()
    assert result.faults is not None
    return FaultCellResult(
        strategy=cell.spec.label,
        workflow=cell.workflow_name,
        intensity=cell.intensity,
        fault_seed=cell.fault_seed,
        recovery=cell.recovery,
        planned_makespan=sched.makespan,
        planned_cost=sched.total_cost,
        makespan=result.makespan,
        cost=result.realized_cost,
        stats=result.faults,
    )


def fault_cell_label(cell: FaultCell) -> str:
    return (
        f"{cell.spec.label}/{cell.workflow_name}"
        f"@x{cell.intensity:g}#s{cell.fault_seed}"
    )


@dataclass
class FaultSweepResult(ResultBase):
    """All cells of one fault-intensity sweep, plus captured failures."""

    recovery: str
    base_plan: FaultPlan
    cells: List[FaultCellResult] = field(default_factory=list)
    failures: List[CellFailure] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        return not self.failures

    def strategies(self) -> List[str]:
        seen: List[str] = []
        for c in self.cells:
            if c.strategy not in seen:
                seen.append(c.strategy)
        return seen

    def intensities(self) -> List[float]:
        return sorted({c.intensity for c in self.cells})

    def group(self, strategy_label: str, intensity: float) -> List[FaultCellResult]:
        return [
            c
            for c in self.cells
            if c.strategy == strategy_label and c.intensity == intensity
        ]

    # ------------------------------------------------------------------
    # ResultBase protocol
    # ------------------------------------------------------------------
    def summary(self) -> str:
        """The per-(policy, intensity) robustness tables."""
        return render_fault_sweep(self)

    def to_json(self) -> dict:
        """Cell outcomes as plain data (the base plan's market object is
        provenance, not data — it lives in the manifest, not here)."""
        return {
            "recovery": self.recovery,
            "cells": [dataclasses.asdict(c) for c in self.cells],
            "failures": [str(f) for f in self.failures],
        }


def run_fault_sweep(
    platform: CloudPlatform | None = None,
    workflow: Workflow | None = None,
    workflow_name: str = "montage",
    strategies: Sequence[StrategySpec] | None = None,
    base_plan: FaultPlan | None = None,
    intensities: Iterable[float] = DEFAULT_INTENSITIES,
    fault_seeds: Iterable[int] | int = 3,
    recovery: str = "retry",
    jobs: int | None = None,
    backend: "str | ExecutionBackend | None" = None,
    cell_timeout: float | None = None,
) -> FaultSweepResult:
    """Replay the five provisioning policies across a fault grid.

    ``fault_seeds`` is either an iterable of seeds or a count ``n``
    (meaning seeds ``0..n-1``).  Cells that abort (recovery budget
    exhausted) are captured as failures, and the sweep still returns
    every surviving cell.
    """
    platform = platform or CloudPlatform.ec2()
    if workflow is None:
        from repro.experiments.config import paper_workflows

        try:
            workflow = paper_workflows()[workflow_name]
        except KeyError:
            raise ExperimentError(
                f"unknown paper workflow {workflow_name!r}"
            ) from None
    if strategies is None:
        strategies = [strategy(lbl) for lbl in FAULT_POLICY_LABELS]
    if base_plan is None:
        base_plan = FaultPlan(
            task_fail_prob=0.1, vm_crash_rate=1 / 28800, boot_fail_prob=0.05
        )
    if isinstance(fault_seeds, int):
        fault_seeds = range(fault_seeds)
    intensities = [float(x) for x in intensities]
    seeds = [int(s) for s in fault_seeds]
    if not intensities or not seeds or not strategies:
        raise ExperimentError("fault sweep needs at least one of each axis")

    cells = [
        FaultCell(
            spec=spec,
            workflow_name=workflow_name,
            workflow=workflow,
            platform=platform,
            base_plan=base_plan,
            intensity=x,
            fault_seed=s,
            recovery=recovery,
        )
        for spec in strategies
        for x in intensities
        for s in seeds
    ]
    exec_backend = make_backend(backend, jobs)
    results, failures = map_guarded(
        exec_backend,
        run_fault_cell,
        cells,
        label_fn=fault_cell_label,
        timeout=cell_timeout,
    )
    return FaultSweepResult(
        recovery=recovery,
        base_plan=base_plan,
        cells=[r for r in results if r is not None],
        failures=failures,
    )


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------
def _mean(xs: List[float]) -> float:
    return sum(xs) / len(xs) if xs else 0.0


def render_fault_sweep(sweep: FaultSweepResult) -> str:
    """Aggregate table: one row per (policy, intensity), averaged over
    fault seeds; appended with the captured-failure summary, if any."""
    rows: List[Tuple] = []
    for label in sweep.strategies():
        for x in sweep.intensities():
            group = sweep.group(label, x)
            if not group:
                continue
            rows.append(
                (
                    label,
                    x,
                    len(group),
                    _mean([g.stats.failures for g in group]),
                    _mean([g.stats.retries for g in group]),
                    _mean([g.stats.resubmits + g.stats.replans for g in group]),
                    _mean([g.stats.wasted_btu_seconds for g in group]),
                    _mean([g.makespan_delta for g in group]),
                    _mean([g.cost_delta for g in group]),
                )
            )
    text = format_table(
        [
            "strategy",
            "intensity",
            "runs",
            "failures",
            "retries",
            "re-place",
            "wasted BTU-s",
            "Δmakespan s",
            "Δcost $",
        ],
        rows,
        float_fmt=".2f",
        title=(
            f"Fault-intensity sweep — recovery={sweep.recovery}, "
            f"plan(task={sweep.base_plan.task_fail_prob:g}, "
            f"crash={sweep.base_plan.vm_crash_rate:g}/s, "
            f"boot={sweep.base_plan.boot_fail_prob:g})"
        ),
    )
    if sweep.failures:
        lost = "\n".join(f"  {f}" for f in sweep.failures)
        text += f"\nunrecovered cells ({len(sweep.failures)}):\n{lost}"
    return text
