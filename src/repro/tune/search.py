"""Seed-deterministic random + successive-halving configuration search.

The search treats the simulator as a fitness oracle, in the spirit of
RIOT (arXiv:1708.08127) and deadline-constrained budget minimisation
(Thai et al., arXiv:1507.05470): sample ``n_candidates`` configurations
from the :class:`~repro.tune.space.TuneSpace`, judge every candidate by
replaying its schedule under its purchase option's market at growing
fidelity (number of market/fault seeds), and between rungs keep the
best ``1/eta`` fraction.  Cheap configurations die on one seed;
promising ones earn more seeds.

Determinism contract (the property the test suite hashes): for a fixed
``seed`` the result is byte-identical on the serial, thread and process
backends, because

* the candidate sample and the per-rung evaluation seeds are pure
  functions of ``seed`` (``numpy`` generators, no hashing, no clock);
* candidate evaluations fan out through the same order-preserving
  :func:`~repro.experiments.parallel.map_guarded` the sweeps use, and
  each evaluation depends only on its own
  :class:`EvalUnit`;
* ranking sorts on (feasibility, cost, makespan) with the candidate's
  axis tuple as the final tie-break, so ties never depend on sampling
  or completion order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.cloud.platform import CloudPlatform
from repro.core.constraints import Constraints
from repro.core.metrics import ScheduleMetrics
from repro.errors import ExperimentError
from repro.experiments.parallel import (
    CellFailure,
    ExecutionBackend,
    make_backend,
    map_guarded,
)
from repro.experiments.pareto_front import pareto_front
from repro.obs.metrics import MetricsRegistry
from repro.obs.metrics import current as current_metrics
from repro.tune.result import CandidateOutcome, RungRecord, TuneResult
from repro.tune.space import Candidate, TuneSpace
from repro.util.suggest import unknown_name_message
from repro.workflows.dag import Workflow


@dataclass(frozen=True)
class EvalUnit:
    """One (candidate, fidelity) evaluation — self-contained and
    picklable, so any backend's worker produces the same outcome."""

    candidate: Candidate
    workflow: Workflow
    platform: CloudPlatform
    #: market/fault seeds to replay (a prefix-stable family: higher
    #: rungs re-run the same seeds plus new ones)
    seeds: Tuple[int, ...]
    constraints: Optional[Constraints]


def eval_unit_label(unit: EvalUnit) -> str:
    return f"{unit.candidate.label}#f{len(unit.seeds)}"


def evaluate_candidate(unit: EvalUnit) -> CandidateOutcome:
    """Judge one candidate (worker entry point).

    Builds the candidate's schedule (reduction applied first), then
    replays it under the purchase option's market once per seed with
    the candidate's recovery policy.  Feasibility is judged on the
    *worst* realized makespan/cost across the seeds.
    """
    from repro.experiments.scenarios import price_scenario
    from repro.simulator.executor import ScheduleExecutor
    from repro.simulator.faults import FaultPlan

    cand = unit.candidate
    reduced = cand.reduce(unit.workflow)
    sched = cand.spec().run(reduced, unit.platform)
    scenario = price_scenario(cand.purchase)
    makespans: List[float] = []
    costs: List[float] = []
    for s in unit.seeds:
        plan = FaultPlan(seed=s, market=scenario.market)
        result = ScheduleExecutor(
            sched, fault_plan=plan, recovery=cand.recovery
        ).run()
        makespans.append(result.makespan)
        costs.append(result.realized_cost)
    worst_makespan = max(makespans)
    worst_cost = max(costs)
    metrics = ScheduleMetrics(
        label=cand.label,
        makespan=worst_makespan,
        cost=worst_cost,
        idle_seconds=sched.total_idle_seconds,
        vm_count=sched.vm_count,
        btus=sched.total_btus,
    ).with_constraints(unit.constraints)
    return CandidateOutcome(
        candidate=cand,
        fidelity=len(unit.seeds),
        makespan=worst_makespan,
        cost=worst_cost,
        mean_makespan=sum(makespans) / len(makespans),
        mean_cost=sum(costs) / len(costs),
        planned_makespan=sched.makespan,
        planned_cost=sched.total_cost,
        vm_count=sched.vm_count,
        metrics=metrics,
    )


def _score(outcome: CandidateOutcome) -> tuple:
    """Total order for ranking: feasible before infeasible; feasible by
    (cost, makespan); infeasible by how badly they miss; candidate axes
    as the deterministic tie-break."""
    if outcome.feasible:
        return (0, outcome.cost, outcome.makespan) + outcome.candidate.sort_key
    return (
        (1, outcome.total_excess, outcome.cost) + outcome.candidate.sort_key
    )


def _eval_seeds(seed: int, fidelity: int) -> Tuple[int, ...]:
    """The rung's market/fault seeds: a prefix-stable derived family.

    ``SeedSequence([seed, i])`` decorrelates the replay streams from
    the sampling stream while keeping seed *i* identical across rungs,
    so a higher rung strictly extends a lower rung's evidence.
    """
    return tuple(
        int(np.random.SeedSequence([seed, i]).generate_state(1)[0])
        for i in range(fidelity)
    )


def autotune(
    constraints: "Constraints | dict | None" = None,
    deadline: Optional[float] = None,
    budget: Optional[float] = None,
    max_vms: Optional[int] = None,
    workflow: Optional[Workflow] = None,
    workflow_name: str = "montage",
    scenario: str = "pareto",
    workflow_seed: int = 2013,
    platform: Optional[CloudPlatform] = None,
    space: "TuneSpace | dict | None" = None,
    n_candidates: int = 24,
    eta: int = 2,
    base_fidelity: int = 1,
    max_rungs: int = 8,
    keep_final: int = 4,
    seed: int = 0,
    jobs: Optional[int] = None,
    backend: "str | ExecutionBackend | None" = None,
    cell_timeout: Optional[float] = None,
    on_infeasible: str = "raise",
) -> TuneResult:
    """Find the cheapest configuration satisfying *constraints*.

    The question the paper never asks: *which (policy, flavor,
    reduction, recovery, purchase option) is cheapest while still
    meeting my deadline?*  ``constraints`` is a
    :class:`~repro.core.constraints.Constraints` (or its dict form);
    the scalar ``deadline``/``budget``/``max_vms`` arguments are a
    convenience spelling of the same thing.  No constraints means
    "cheapest overall".

    The workflow is one concrete instance: *workflow* directly, or the
    paper shape *workflow_name* with runtime *scenario* applied under
    ``workflow_seed`` — the search optimises for that instance, the
    same way the paper's figures condition on a scenario draw.

    ``n_candidates`` configurations are sampled seed-deterministically
    from *space*, then successively halved: each rung evaluates the
    survivors at ``base_fidelity * eta**rung`` market seeds and keeps
    the best ``1/eta``, stopping once at most ``keep_final`` survive —
    the final rung is the near-miss menu the Pareto frontier is drawn
    from.  ``jobs``/``backend`` fan evaluations out over
    the guarded parallel backends; any setting returns a result whose
    ``to_json()`` is byte-identical to the serial run.

    With ``on_infeasible="raise"`` (default) a search whose final rung
    contains no feasible configuration raises
    :class:`~repro.errors.ExperimentError` carrying the nearest miss's
    violation breakdown; ``"return"`` hands back the
    :class:`~repro.tune.result.TuneResult` with ``winner=None`` for
    callers that want the near-misses anyway.
    """
    if on_infeasible not in ("raise", "return"):
        raise ExperimentError(
            unknown_name_message(
                "on_infeasible mode", on_infeasible, ("raise", "return")
            )
        )
    if n_candidates < 1:
        raise ExperimentError(f"n_candidates must be >= 1, got {n_candidates}")
    if eta < 2:
        raise ExperimentError(f"eta must be >= 2, got {eta}")
    if base_fidelity < 1:
        raise ExperimentError(f"base_fidelity must be >= 1, got {base_fidelity}")
    if max_rungs < 1:
        raise ExperimentError(f"max_rungs must be >= 1, got {max_rungs}")
    if keep_final < 1:
        raise ExperimentError(f"keep_final must be >= 1, got {keep_final}")

    # -- constraints: object, dict, or scalar spelling ------------------
    scalars = dict(deadline=deadline, budget=budget, max_vms=max_vms)
    given = {k: v for k, v in scalars.items() if v is not None}
    if constraints is not None and given:
        raise ExperimentError(
            "pass either a constraints object or scalar "
            f"deadline/budget/max_vms, not both (got both: {sorted(given)})"
        )
    if constraints is None and given:
        constraints = Constraints(**given)
    elif isinstance(constraints, dict):
        constraints = Constraints.from_json(constraints)

    platform = platform or CloudPlatform.ec2()
    if space is None:
        space = TuneSpace()
    elif isinstance(space, dict):
        space = TuneSpace.from_json(space)

    # -- the concrete workflow instance being tuned ---------------------
    from repro.experiments.config import paper_workflow
    from repro.experiments.scenarios import scenario as scenario_lookup

    scenario_name = str(scenario)
    if workflow is None:
        shape = paper_workflow(workflow_name)
        sc = scenario_lookup(scenario_name, platform)
        workflow = sc.apply(shape, np.random.default_rng(workflow_seed))
    else:
        scenario_name = "custom"

    # -- search ---------------------------------------------------------
    exec_backend = make_backend(backend, jobs)
    # search-progress counters land in the ambient registry when one is
    # active (e.g. ``repro-experiments --metrics``), else in a throwaway
    registry = current_metrics() or MetricsRegistry()
    rng = np.random.default_rng(seed)
    candidates: Sequence[Candidate] = space.sample(rng, n_candidates)
    registry.inc("tune.searches")
    registry.inc("tune.candidates", len(candidates))

    fidelity = base_fidelity
    rung_records: List[RungRecord] = []
    all_failures: List[CellFailure] = []
    outcomes: List[CandidateOutcome] = []
    for rung in range(max_rungs):
        units = [
            EvalUnit(
                candidate=c,
                workflow=workflow,
                platform=platform,
                seeds=_eval_seeds(seed, fidelity),
                constraints=constraints,
            )
            for c in candidates
        ]
        results, failures = map_guarded(
            exec_backend,
            evaluate_candidate,
            units,
            label_fn=eval_unit_label,
            timeout=cell_timeout,
        )
        all_failures.extend(failures)
        registry.inc("tune.rungs")
        registry.inc("tune.evals", len(units) * fidelity)
        registry.inc("tune.eval_failures", len(failures))
        outcomes = sorted((r for r in results if r is not None), key=_score)
        if not outcomes:
            raise ExperimentError(
                f"every candidate of rung {rung} failed:\n"
                + "\n".join(str(f) for f in all_failures)
            )
        last_rung = len(outcomes) <= keep_final or rung == max_rungs - 1
        keep = len(outcomes) if last_rung else max(1, -(-len(outcomes) // eta))
        rung_records.append(
            RungRecord(
                rung=rung,
                fidelity=fidelity,
                evaluated=len(units),
                failed=len(failures),
                kept=tuple(o.label for o in outcomes[:keep]),
            )
        )
        if last_rung:
            break
        candidates = [o.candidate for o in outcomes[:keep]]
        fidelity *= eta

    # -- verdicts -------------------------------------------------------
    winner = outcomes[0] if outcomes[0].feasible else None
    frontier_cell = pareto_front({o.label: o.metrics for o in outcomes})
    by_label = {o.label: o for o in outcomes}
    frontier = tuple(by_label[lbl] for lbl in frontier_cell.frontier)

    result = TuneResult(
        winner=winner,
        outcomes=tuple(outcomes),
        frontier=frontier,
        rungs=tuple(rung_records),
        constraints=constraints,
        space=space,
        workflow_name=workflow_name if scenario_name != "custom" else workflow.name,
        scenario=scenario_name,
        seed=seed,
        n_candidates=n_candidates,
        eta=eta,
        failures=all_failures,
        workflow=workflow,
        platform=platform,
    )
    if winner is None and on_infeasible == "raise":
        nearest = outcomes[0]
        assert constraints is not None  # unconstrained outcomes are feasible
        raise ExperimentError(
            f"no feasible configuration for {constraints.describe()} "
            f"(searched {n_candidates} candidates over "
            f"{len(rung_records)} rung(s)); nearest miss "
            f"{nearest.label}: {nearest.metrics.violation_summary()}"
        )
    return result
