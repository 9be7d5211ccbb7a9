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

A :class:`ReplayCell`, shared with :mod:`repro.experiments.pricing`,
carries its label, platform and ``FaultPlan``, all built when the sweep
lays out its grid, so the worker only schedules and replays.  Cells fan
out over an :class:`~repro.experiments.parallel.ExecutionBackend`
through the guarded map every sweep uses, so one aborted cell (a
recovery policy exhausting its attempt budget at very high intensity)
yields a captured failure, not a dead sweep.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from functools import partial
from operator import attrgetter
from typing import Callable, Iterable, List, Sequence, Tuple

from repro.cloud.platform import CloudPlatform
from repro.experiments.config import StrategySpec, paper_workflow, strategy
from repro.experiments.parallel import (
    CellFailure,
    ExecutionBackend,
    check_axes,
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


class ReplayOutcome:
    """Realized-minus-planned deltas of a replay outcome.  It has no
    fields, so each outcome class keeps its own field order."""

    @property
    def makespan_delta(self) -> float:
        """Realized minus planned makespan, seconds."""
        return self.makespan - self.planned_makespan

    @property
    def cost_delta(self) -> float:
        """Realized minus planned rent, USD."""
        return self.cost - self.planned_cost


@dataclass(frozen=True)
class FaultCellResult(ReplayOutcome):
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


@dataclass(frozen=True)
class ReplayCell:
    """One schedule-and-replay unit of the fault or pricing grid."""

    #: grid coordinates, used in failure reports
    label: str
    spec: StrategySpec
    workflow: Workflow
    platform: CloudPlatform
    plan: FaultPlan
    recovery: str
    #: the outcome class with its leading coordinate fields bound (a
    #: :func:`functools.partial`, so it pickles); the worker adds the rest
    outcome: Callable[..., ReplayOutcome]


def run_replay_cell(cell: ReplayCell) -> ReplayOutcome:
    """Build the schedule and replay it under the cell's plan (worker
    entry point — everything it touches pickles)."""
    sched = cell.spec.run(cell.workflow, cell.platform)
    result = ScheduleExecutor(
        sched, fault_plan=cell.plan, recovery=cell.recovery
    ).run()
    assert result.faults is not None
    return cell.outcome(
        planned_makespan=sched.makespan,
        planned_cost=sched.total_cost,
        makespan=result.makespan,
        cost=result.realized_cost,
        stats=result.faults,
    )


def first_seen(cells: Iterable, attr: str) -> list:
    """The distinct values of *attr* over *cells*, in first-seen order."""
    return list(dict.fromkeys(getattr(c, attr) for c in cells))


def mean(values: List[float]) -> float:
    """Arithmetic mean of one non-empty group (left-to-right sum)."""
    return sum(values) / len(values)


@dataclass
class FaultSweepResult(ResultBase):
    """All cells of one fault-intensity sweep, plus captured failures."""

    recovery: str
    base_plan: FaultPlan
    cells: List[FaultCellResult] = field(default_factory=list)
    failures: List[CellFailure] = field(default_factory=list)

    def strategies(self) -> List[str]:
        return first_seen(self.cells, "strategy")

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
        workflow = paper_workflow(workflow_name)
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
    check_axes(
        "fault sweep",
        strategies=[spec.label for spec in strategies],
        intensities=intensities,
        fault_seeds=seeds,
    )

    cells = [
        ReplayCell(
            label=f"{spec.label}/{workflow_name}@x{x:g}#s{s}",
            spec=spec,
            workflow=workflow,
            platform=platform,
            plan=base_plan.scaled(x).with_seed(s),
            recovery=recovery,
            outcome=partial(
                FaultCellResult, spec.label, workflow_name, x, s, recovery
            ),
        )
        for spec in strategies
        for x in intensities
        for s in seeds
    ]
    results, failures = map_guarded(
        make_backend(backend, jobs),
        run_replay_cell,
        cells,
        label_fn=attrgetter("label"),
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
                    mean([g.stats.failures for g in group]),
                    mean([g.stats.retries for g in group]),
                    mean([g.stats.resubmits + g.stats.replans for g in group]),
                    mean([g.stats.wasted_btu_seconds for g in group]),
                    mean([g.makespan_delta for g in group]),
                    mean([g.cost_delta for g in group]),
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
