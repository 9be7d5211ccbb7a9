"""Multi-seed replication of the evaluation.

The paper reports one draw of its Pareto workload.  This module re-runs
a sweep over many seeds and aggregates each strategy's gain/loss with
bootstrap confidence intervals, so conclusions like "AllPar*-small
always saves" can be stated with uncertainty instead of from a single
sample — the statistical hardening a reproduction owes the original.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

import numpy as np

from repro.cloud.platform import CloudPlatform
from repro.errors import ExperimentError
from repro.experiments.config import StrategySpec, paper_strategies, paper_workflows
from repro.experiments.parallel import ExecutionBackend, make_backend
from repro.experiments.runner import SweepResult, run_sweep
from repro.experiments.scenarios import Scenario, scenario
from repro.util.rng import ensure_rng
from repro.util.tables import format_table
from repro.workflows.dag import Workflow


@dataclass(frozen=True)
class ReplicatedMetric:
    """One strategy's distribution over replicated sweeps."""

    label: str
    workflow: str
    gains: Sequence[float]
    losses: Sequence[float]

    @property
    def mean_gain(self) -> float:
        return float(np.mean(self.gains))

    @property
    def mean_loss(self) -> float:
        return float(np.mean(self.losses))

    def gain_ci(self, level: float = 0.95, resamples: int = 2000, seed: int = 0):
        return _bootstrap_ci(self.gains, level, resamples, seed)

    def loss_ci(self, level: float = 0.95, resamples: int = 2000, seed: int = 0):
        return _bootstrap_ci(self.losses, level, resamples, seed)

    @property
    def always_saves(self) -> bool:
        return max(self.losses) <= 1e-6

    @property
    def always_gains(self) -> bool:
        return min(self.gains) >= -1e-6


def _bootstrap_ci(values: Sequence[float], level: float, resamples: int, seed: int):
    """Percentile bootstrap CI of the mean."""
    if not 0 < level < 1:
        raise ExperimentError(f"CI level must be in (0, 1), got {level}")
    arr = np.asarray(values, dtype=float)
    if arr.size == 1:
        return float(arr[0]), float(arr[0])
    rng = ensure_rng(seed)
    idx = rng.integers(0, arr.size, size=(resamples, arr.size))
    means = arr[idx].mean(axis=1)
    alpha = (1.0 - level) / 2.0
    lo, hi = np.quantile(means, [alpha, 1.0 - alpha])
    return float(lo), float(hi)


@dataclass(frozen=True)
class _SeedJob:
    """One replication unit: a full single-scenario sweep at one seed."""

    seed: int
    platform: CloudPlatform
    workflows: Tuple[Tuple[str, Workflow], ...]
    strategies: Tuple[StrategySpec, ...]
    scenario: Scenario


def _run_seed(job: _SeedJob) -> SweepResult:
    """Worker entry point: each seed's sweep runs serially inside it."""
    return run_sweep(
        platform=job.platform,
        workflows=dict(job.workflows),
        scenarios=[job.scenario],
        strategies=list(job.strategies),
        seed=job.seed,
    )


def replicate(
    seeds: Iterable[int],
    platform: CloudPlatform | None = None,
    workflows: Mapping[str, Workflow] | None = None,
    strategies: List[StrategySpec] | None = None,
    scenario_name: str = "pareto",
    jobs: int | None = None,
    backend: "str | ExecutionBackend | None" = None,
) -> Dict[tuple, ReplicatedMetric]:
    """Run the Pareto sweep once per seed and aggregate.

    Returns ``{(workflow, strategy_label): ReplicatedMetric}``.

    ``jobs``/``backend`` fan the seeds out over an
    :class:`~repro.experiments.parallel.ExecutionBackend`; each seed's
    sweep is already independently seeded and the aggregation walks
    seeds in input order, so results match the serial run exactly.
    """
    seeds = list(seeds)
    if not seeds:
        raise ExperimentError("replicate needs at least one seed")
    platform = platform or CloudPlatform.ec2()
    workflows = workflows if workflows is not None else paper_workflows()
    strategies = strategies if strategies is not None else paper_strategies()
    sc: Scenario = scenario(scenario_name, platform)

    exec_backend = make_backend(backend, jobs)
    sweeps = exec_backend.map(
        _run_seed,
        [
            _SeedJob(
                seed=seed,
                platform=platform,
                workflows=tuple(workflows.items()),
                strategies=tuple(strategies),
                scenario=sc,
            )
            for seed in seeds
        ],
    )

    gains: Dict[tuple, List[float]] = {}
    losses: Dict[tuple, List[float]] = {}
    for sweep in sweeps:
        for wf_name in workflows:
            for spec in strategies:
                m = sweep.get(sc.name, wf_name, spec.label)
                key = (wf_name, spec.label)
                gains.setdefault(key, []).append(m.gain_pct)
                losses.setdefault(key, []).append(m.loss_pct)
    return {
        key: ReplicatedMetric(
            label=key[1], workflow=key[0], gains=tuple(gains[key]),
            losses=tuple(losses[key]),
        )
        for key in gains
    }


def render_replication(results: Dict[tuple, ReplicatedMetric]) -> str:
    rows = []
    for (wf, label), m in sorted(results.items()):
        glo, ghi = m.gain_ci()
        llo, lhi = m.loss_ci()
        rows.append(
            (
                f"{wf}/{label}",
                m.mean_gain,
                f"[{glo:.1f},{ghi:.1f}]",
                m.mean_loss,
                f"[{llo:.1f},{lhi:.1f}]",
            )
        )
    return format_table(
        ["cell", "mean gain %", "95% CI", "mean loss %", "95% CI"],
        rows,
        float_fmt=".1f",
        title=f"Replicated evaluation ({len(next(iter(results.values())).gains)} seeds)",
    )
