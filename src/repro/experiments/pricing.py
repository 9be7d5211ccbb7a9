"""Pricing sweep: ranking provisioning policies under spot markets.

The paper prices every VM at the fixed on-demand list rate.  This
experiment re-ranks its provisioning policies when prices move: each
(policy, workflow) schedule is replayed through the market-aware
:class:`~repro.simulator.executor.ScheduleExecutor` over a grid of
price scenarios (a fixed-price control plus spot regimes, see
:func:`~repro.experiments.scenarios.price_scenarios`) crossed with
boot-delay settings (pre-booted vs cold starts with a warm pool),
replicated over market seeds.  The summary reports realized makespan
and rent per cell and the per-cell Pareto frontier — under a spot
market "cheap" and "fast" are genuinely competing objectives, because
the aggressive bidder saves rent but eats correlated reclamations.

Every cell is an independent work unit fanned out over an
:class:`~repro.experiments.parallel.ExecutionBackend` through the same
guarded map the fault sweep uses.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.cloud.platform import CloudPlatform
from repro.errors import ExperimentError
from repro.experiments.config import StrategySpec, strategy
from repro.experiments.parallel import (
    CellFailure,
    ExecutionBackend,
    make_backend,
    map_guarded,
)
from repro.experiments.pareto_front import pareto_front
from repro.experiments.result import ResultBase
from repro.experiments.scenarios import PriceScenario, price_scenarios
from repro.simulator.executor import ScheduleExecutor
from repro.simulator.faults import FaultPlan, FaultStats
from repro.util.ascii_plot import ascii_scatter
from repro.util.tables import format_table
from repro.workflows.dag import Workflow

#: the provisioning policies the pricing ranking compares (paper axis)
PRICING_POLICY_LABELS = (
    "OneVMperTask-s",
    "StartParNotExceed-s",
    "StartParExceed-s",
    "AllParNotExceed-s",
    "AllParExceed-s",
)


@dataclass(frozen=True)
class BootSetting:
    """One cold-start regime: how long a fresh VM takes to be usable."""

    name: str
    #: nominal provider boot time (platform axis; 0 keeps pre-booting)
    boot_seconds: float = 0.0
    prebooted: bool = True
    #: extra cold-start seconds on top of the nominal boot
    cold_seconds: float = 0.0
    #: boot-delay noise: "deterministic" or "lognormal"
    dist: str = "lognormal"
    #: first N acquisitions per flavor come from a warm pool
    warm_pool: int = 0
    warm_seconds: float = 0.0


def paper_boot_settings() -> Tuple[BootSetting, ...]:
    """The two boot regimes of the pricing grid: the paper's pre-booted
    ideal, and measured-EC2-style cold starts with a small warm pool."""
    return (
        BootSetting("prebooted"),
        BootSetting(
            "cold_start",
            boot_seconds=45.0,
            prebooted=False,
            cold_seconds=60.0,
            dist="lognormal",
            warm_pool=2,
            warm_seconds=5.0,
        ),
    )


@dataclass(frozen=True)
class PricingCell:
    """One (strategy, price scenario, boot setting, seed) grid unit."""

    spec: StrategySpec
    workflow_name: str
    workflow: Workflow
    platform: CloudPlatform
    scenario: PriceScenario
    boot: BootSetting
    seed: int


@dataclass(frozen=True)
class PricingCellResult:
    """Realized outcome of one market-priced replay."""

    strategy: str
    workflow: str
    scenario: str
    boot: str
    seed: int
    recovery: str
    planned_makespan: float
    planned_cost: float
    makespan: float
    cost: float
    stats: FaultStats

    @property
    def makespan_delta(self) -> float:
        return self.makespan - self.planned_makespan

    @property
    def cost_delta(self) -> float:
        return self.cost - self.planned_cost


def run_pricing_cell(cell: PricingCell) -> PricingCellResult:
    """Build the schedule and replay it under the cell's market sample
    (worker entry point — everything it touches pickles)."""
    boot = cell.boot
    platform = dataclasses.replace(
        cell.platform,
        boot_seconds=boot.boot_seconds,
        prebooted=boot.prebooted,
    )
    sched = cell.spec.run(cell.workflow, platform)
    plan = FaultPlan(
        seed=cell.seed,
        market=cell.scenario.market,
        boot_cold_seconds=boot.cold_seconds,
        boot_delay_dist=boot.dist,
        boot_warm_pool=boot.warm_pool,
        boot_warm_seconds=boot.warm_seconds,
    )
    result = ScheduleExecutor(
        sched, fault_plan=plan, recovery=cell.scenario.recovery
    ).run()
    assert result.faults is not None
    return PricingCellResult(
        strategy=cell.spec.label,
        workflow=cell.workflow_name,
        scenario=cell.scenario.name,
        boot=boot.name,
        seed=cell.seed,
        recovery=cell.scenario.recovery,
        planned_makespan=sched.makespan,
        planned_cost=sched.total_cost,
        makespan=result.makespan,
        cost=result.realized_cost,
        stats=result.faults,
    )


def pricing_cell_label(cell: PricingCell) -> str:
    return (
        f"{cell.spec.label}/{cell.workflow_name}"
        f"@{cell.scenario.name}/{cell.boot.name}#s{cell.seed}"
    )


@dataclass
class PricingSweepResult(ResultBase):
    """All cells of one pricing sweep, plus captured failures."""

    cells: List[PricingCellResult] = field(default_factory=list)
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

    def scenarios(self) -> List[str]:
        seen: List[str] = []
        for c in self.cells:
            if c.scenario not in seen:
                seen.append(c.scenario)
        return seen

    def boots(self) -> List[str]:
        seen: List[str] = []
        for c in self.cells:
            if c.boot not in seen:
                seen.append(c.boot)
        return seen

    def group(
        self, scenario: str, boot: str, strategy_label: str
    ) -> List[PricingCellResult]:
        return [
            c
            for c in self.cells
            if c.scenario == scenario
            and c.boot == boot
            and c.strategy == strategy_label
        ]

    # ------------------------------------------------------------------
    def mean_points(self, scenario: str, boot: str) -> Dict[str, Tuple[float, float]]:
        """Per-policy ``(cost, makespan)`` averaged over market seeds."""
        points: Dict[str, Tuple[float, float]] = {}
        for label in self.strategies():
            group = self.group(scenario, boot, label)
            if group:
                points[label] = (
                    _mean([g.cost for g in group]),
                    _mean([g.makespan for g in group]),
                )
        return points

    def frontier(self, scenario: str, boot: str) -> Tuple[str, ...]:
        """Non-dominated policies of one cell, fast -> cheap.

        A policy is dominated when another is at least as fast *and* as
        cheap (and strictly better on one axis) on the seed-averaged
        realized outcome.
        """
        points = self.mean_points(scenario, boot)
        return pareto_front(
            {
                label: SimpleNamespace(cost=c, makespan=m)
                for label, (c, m) in points.items()
            }
        ).frontier

    # ------------------------------------------------------------------
    # ResultBase protocol
    # ------------------------------------------------------------------
    def summary(self) -> str:
        """The per-(scenario, boot) ranking tables and frontiers."""
        return render_pricing_sweep(self)

    def to_json(self) -> dict:
        return {
            "cells": [dataclasses.asdict(c) for c in self.cells],
            "failures": [str(f) for f in self.failures],
        }


def run_pricing_sweep(
    platform: CloudPlatform | None = None,
    workflow: Workflow | None = None,
    workflow_name: str = "montage",
    strategies: Sequence[StrategySpec] | None = None,
    scenarios: Sequence[PriceScenario] | None = None,
    boots: Sequence[BootSetting] | None = None,
    seeds: Iterable[int] | int = 3,
    jobs: int | None = None,
    backend: "str | ExecutionBackend | None" = None,
    cell_timeout: float | None = None,
) -> PricingSweepResult:
    """Replay the provisioning policies across the pricing grid.

    ``seeds`` is either an iterable of market seeds or a count ``n``
    (meaning seeds ``0..n-1``).  Cells that abort (recovery budget
    exhausted under a hostile market) are captured as failures; the
    sweep still returns every surviving cell.
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
        strategies = [strategy(lbl) for lbl in PRICING_POLICY_LABELS]
    scenarios = list(scenarios) if scenarios is not None else price_scenarios()
    boots = list(boots) if boots is not None else list(paper_boot_settings())
    if isinstance(seeds, int):
        seeds = range(seeds)
    seed_list = [int(s) for s in seeds]
    if not scenarios or not boots or not seed_list or not strategies:
        raise ExperimentError("pricing sweep needs at least one of each axis")

    cells = [
        PricingCell(
            spec=spec,
            workflow_name=workflow_name,
            workflow=workflow,
            platform=platform,
            scenario=sc,
            boot=boot,
            seed=s,
        )
        for spec in strategies
        for sc in scenarios
        for boot in boots
        for s in seed_list
    ]
    exec_backend = make_backend(backend, jobs)
    results, failures = map_guarded(
        exec_backend,
        run_pricing_cell,
        cells,
        label_fn=pricing_cell_label,
        timeout=cell_timeout,
    )
    return PricingSweepResult(
        cells=[r for r in results if r is not None],
        failures=failures,
    )


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------
def _mean(xs: List[float]) -> float:
    return sum(xs) / len(xs) if xs else 0.0


def render_pricing_sweep(sweep: PricingSweepResult) -> str:
    """One table per (price scenario, boot setting) cell plus the cell's
    Pareto frontier and a cost/makespan scatter of the policy menu."""
    blocks: List[str] = []
    for sc in sweep.scenarios():
        for boot in sweep.boots():
            frontier = sweep.frontier(sc, boot)
            rows: List[tuple] = []
            for label in sweep.strategies():
                group = sweep.group(sc, boot, label)
                if not group:
                    continue
                rows.append(
                    (
                        ("*" if label in frontier else " ") + label,
                        len(group),
                        _mean([g.stats.preemptions for g in group]),
                        _mean([g.stats.rebids for g in group]),
                        _mean([g.makespan for g in group]),
                        _mean([g.makespan_delta for g in group]),
                        _mean([g.cost for g in group]),
                        _mean([g.cost_delta for g in group]),
                    )
                )
            if not rows:
                continue
            table = format_table(
                [
                    "strategy (*=Pareto)",
                    "runs",
                    "preempt",
                    "rebids",
                    "makespan s",
                    "Δmakespan s",
                    "cost $",
                    "Δcost $",
                ],
                rows,
                float_fmt=".2f",
                title=f"Pricing sweep — scenario={sc}, boot={boot}",
            )
            plot = ascii_scatter(
                sweep.mean_points(sc, boot),
                xlabel="realized cost $",
                ylabel="realized makespan s",
                mark_origin=False,
                height=14,
            )
            blocks.append(
                table
                + "\nPareto frontier (fast -> cheap): "
                + (", ".join(frontier) or "(none)")
                + "\n"
                + plot
            )
    text = "\n\n".join(blocks)
    if sweep.failures:
        lost = "\n".join(f"  {f}" for f in sweep.failures)
        text += f"\n\nunrecovered cells ({len(sweep.failures)}):\n{lost}"
    return text
