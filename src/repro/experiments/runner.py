"""Sweep runner: every strategy x workflow x scenario, against the
reference, with optional DES cross-validation of every schedule.

The grid's (scenario, workflow) cells are independent, so ``run_sweep``
can fan them out over an :class:`~repro.experiments.parallel.ExecutionBackend`
(``jobs``/``backend`` arguments).  Per-cell RNG streams are spawned up
front by grid position, and the merge walks cells in grid order, so the
parallel result is identical to the serial one."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping

from repro.cloud.platform import CloudPlatform
from repro.core.baseline import reference_schedule
from repro.core.metrics import ScheduleMetrics, compare_to_reference
from repro.core.schedule import Schedule
from repro.errors import ExperimentError
from repro.experiments.config import StrategySpec, paper_strategies, paper_workflows
from repro.experiments.parallel import (
    CellFailure,
    ExecutionBackend,
    SweepCell,
    cell_label,
    check_axes,
    make_backend,
    map_guarded,
    run_cell,
)
from repro.experiments.result import ResultBase
from repro.experiments.scenarios import Scenario, paper_scenarios
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer, ensure_tracer
from repro.simulator.executor import simulate_schedule
from repro.util.rng import spawn_seeds
from repro.workflows.dag import Workflow


def verify_schedule(sched: Schedule, tracer: Tracer | None = None) -> None:
    """Check that executing *sched* reproduces its planned timings.

    :func:`~repro.kernels.replay.replay_verify` first tries to certify
    the plan: its columns satisfy the no-fault execution recurrence bit
    for bit, and starts strictly increase along every DAG and VM-queue
    edge, which rules out a deadlocking queue order and leaves the plan
    as the recurrence's only solution.  Anything it does not certify or
    model (tracing, metrics, cold boots, markets, multi-region fleets)
    runs through the real simulator, which raises
    :class:`~repro.errors.SimulationError` on divergence or deadlock.
    """
    from repro.kernels.replay import replay_verify

    if not replay_verify(sched, tracer=tracer):
        simulate_schedule(sched, check=True, tracer=tracer)


def run_strategy(
    spec: StrategySpec,
    workflow: Workflow,
    platform: CloudPlatform,
    reference: Schedule | None = None,
    verify: bool = False,
    tracer: Tracer | None = None,
) -> ScheduleMetrics:
    """Run one strategy on one concrete workflow instance.

    With *verify*, the schedule's timings are also checked against an
    execution of it (:func:`verify_schedule`: the fixed-point
    certificate, or the DES, which feeds *tracer* with its simulated-time
    task/VM spans when one is given).
    """
    sched = spec.run(workflow, platform)
    sched.validate()
    if verify:
        verify_schedule(sched, tracer=tracer)
    ref = reference if reference is not None else reference_schedule(workflow, platform)
    return compare_to_reference(sched, ref, label=spec.label)


@dataclass
class SweepResult(ResultBase):
    """Results of a full sweep, indexed [scenario][workflow][strategy]."""

    platform: CloudPlatform
    metrics: Dict[str, Dict[str, Dict[str, ScheduleMetrics]]] = field(
        default_factory=dict
    )
    references: Dict[str, Dict[str, ScheduleMetrics]] = field(default_factory=dict)
    failures: List[CellFailure] = field(default_factory=list)
    #: run counters rolled up across cells in grid order
    #: (``run_sweep(metrics=...)``), ``MetricsRegistry.as_dict()`` form;
    #: ``None`` when counter collection was off
    counters: "Dict[str, Dict[str, float]] | None" = None

    # ------------------------------------------------------------------
    def scenarios(self) -> List[str]:
        return list(self.metrics)

    def workflows(self, scenario: str) -> List[str]:
        return list(self.metrics[scenario])

    def get(self, scenario: str, workflow: str, strategy: str) -> ScheduleMetrics:
        try:
            return self.metrics[scenario][workflow][strategy]
        except KeyError:
            raise ExperimentError(
                f"no result for {scenario}/{workflow}/{strategy}"
            ) from None

    def strategies(self, scenario: str, workflow: str) -> List[str]:
        return list(self.metrics[scenario][workflow])

    def rows(self) -> List[tuple]:
        """Flat (scenario, workflow, strategy, metrics) rows."""
        out = []
        for sc, by_wf in self.metrics.items():
            for wf, by_strat in by_wf.items():
                for label, m in by_strat.items():
                    out.append((sc, wf, label, m))
        return out

    # ------------------------------------------------------------------
    # ResultBase protocol
    # ------------------------------------------------------------------
    def summary(self) -> str:
        """The cross-cell stability report (same as ``render_summary``)."""
        from repro.experiments.summary import render_summary

        return render_summary(self)

    def to_json(self) -> dict:
        """The persisted sweep form (``save_sweep``'s layout) plus
        captured failure labels."""
        from repro.experiments.store import sweep_to_dict

        data = sweep_to_dict(self)
        data["failures"] = [str(f) for f in self.failures]
        return data


def run_sweep(
    platform: CloudPlatform | None = None,
    workflows: Mapping[str, Workflow] | None = None,
    scenarios: Iterable[Scenario] | None = None,
    strategies: Iterable[StrategySpec] | None = None,
    seed: int = 2013,
    verify: bool = False,
    jobs: int | None = None,
    backend: "str | ExecutionBackend | None" = None,
    cell_timeout: float | None = None,
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
) -> SweepResult:
    """Run the paper's full evaluation grid.

    The default arguments reproduce Figures 4-5 and Tables III-IV: four
    workflows x three scenarios x nineteen strategies, seeded so the
    Pareto draws are identical across strategies within one (scenario,
    workflow) cell.

    ``jobs``/``backend`` fan the grid's cells out over an
    :class:`~repro.experiments.parallel.ExecutionBackend`; any setting
    produces metrics identical to the serial run (see the determinism
    contract in :mod:`repro.experiments.parallel`).

    A crashing cell does not take the whole sweep down: each cell runs
    guarded (optional ``cell_timeout`` wall-clock deadline) and failed
    cells are simply absent from the result, described in
    ``SweepResult.failures`` — callers check that list.

    *tracer* records the sweep (one trace process per cell, merged via
    :meth:`~repro.obs.tracer.Tracer.adopt` regardless of backend);
    *metrics* rolls per-cell counters into the given registry and into
    ``SweepResult.counters``.  Counters hold only simulation facts and
    cells are merged in grid order, so the roll-up is byte-identical
    across the serial, thread and process backends for the same seed.
    """
    platform = platform or CloudPlatform.ec2()
    workflows = workflows if workflows is not None else paper_workflows()
    scenarios = list(scenarios) if scenarios is not None else paper_scenarios(platform)
    strategies = (
        list(strategies) if strategies is not None else paper_strategies()
    )
    check_axes(
        "sweep",
        scenarios=[sc.name for sc in scenarios],
        workflows=workflows,
        strategies=[spec.label for spec in strategies],
    )

    exec_backend = make_backend(backend, jobs)
    tracer = ensure_tracer(tracer)
    seeds = spawn_seeds(seed, len(scenarios) * len(workflows))
    cells = [
        SweepCell(
            scenario=sc,
            workflow_name=wf_name,
            shape=shape,
            strategies=tuple(strategies),
            platform=platform,
            seed=seeds[i * len(workflows) + j],
            verify=verify,
            collect=metrics is not None,
            trace=tracer.enabled,
        )
        for i, sc in enumerate(scenarios)
        for j, (wf_name, shape) in enumerate(workflows.items())
    ]
    cell_results, failures = map_guarded(
        exec_backend,
        run_cell,
        cells,
        label_fn=cell_label,
        timeout=cell_timeout,
    )

    # Merge in grid order — backend.map preserves input order, so the
    # result layout (and any counter/trace roll-up) is independent of
    # completion order.
    result = SweepResult(platform=platform, failures=failures)
    for i, cr in enumerate(cell_results):
        if cr is None:
            continue  # captured failure; see result.failures
        result.metrics.setdefault(cr.scenario, {})[cr.workflow] = dict(cr.metrics)
        result.references.setdefault(cr.scenario, {})[cr.workflow] = cr.reference
        if metrics is not None and cr.counters is not None:
            metrics.merge(cr.counters)
        if tracer.enabled and cr.trace_events:
            tracer.adopt(cr.trace_events, label=cell_label(cells[i]))
    if metrics is not None:
        result.counters = metrics.as_dict()
    return result
