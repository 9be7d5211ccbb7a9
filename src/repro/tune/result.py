"""What the autotuner returns: winner, Pareto near-misses, rung history.

A :class:`CandidateOutcome` is one configuration judged at some
fidelity (number of market/fault seeds); a :class:`TuneResult` is the
final rung of the search — every survivor's outcome in score order, the
cheapest feasible one as :attr:`~TuneResult.winner`, and the
non-dominated menu of near-misses computed with the same
:func:`~repro.experiments.pareto_front.pareto_front` machinery the
sweep reports use.

``to_json()`` is the cross-backend byte-identity surface: it contains
only quantities derived from seeded simulation (never wall-clock,
worker counts or backend names), so a fixed-seed search serialises to
the same bytes from the serial, thread and process backends.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.cloud.platform import CloudPlatform
from repro.core.constraints import Constraints
from repro.core.metrics import ScheduleMetrics
from repro.experiments.parallel import CellFailure
from repro.experiments.result import ResultBase
from repro.tune.space import Candidate, TuneSpace
from repro.util.tables import format_table
from repro.workflows.dag import Workflow


@dataclass(frozen=True)
class CandidateOutcome:
    """One configuration's judged outcome at some fidelity.

    Feasibility is conservative: the candidate is judged on its *worst*
    realized makespan/cost over the rung's seeds, so a winner met its
    constraints on every evaluated sample, not just on average.
    """

    candidate: Candidate
    #: how many market/fault seeds this outcome aggregates
    fidelity: int
    #: worst realized makespan/cost over the seeds (the judged values)
    makespan: float
    cost: float
    #: seed-averaged realized values (reporting only)
    mean_makespan: float
    mean_cost: float
    #: the static plan behind every replay
    planned_makespan: float
    planned_cost: float
    vm_count: int
    #: worst-case realized metrics, constraint-stamped
    metrics: ScheduleMetrics

    @property
    def label(self) -> str:
        return self.candidate.label

    @property
    def feasible(self) -> bool:
        """Feasible, or unjudged (no constraints given)."""
        return self.metrics.feasible is not False

    @property
    def total_excess(self) -> float:
        """Summed overshoot across violated bounds (0 when feasible)."""
        return sum(v.excess for v in self.metrics.violations)

    def to_json(self) -> dict:
        return {
            "candidate": self.candidate.to_json(),
            "label": self.label,
            "fidelity": self.fidelity,
            "makespan": self.makespan,
            "cost": self.cost,
            "mean_makespan": self.mean_makespan,
            "mean_cost": self.mean_cost,
            "planned_makespan": self.planned_makespan,
            "planned_cost": self.planned_cost,
            "vm_count": self.vm_count,
            "feasible": self.metrics.feasible,
            "violations": [
                {"constraint": v.constraint, "limit": v.limit, "actual": v.actual}
                for v in self.metrics.violations
            ],
        }


@dataclass(frozen=True)
class RungRecord:
    """One successive-halving rung: who ran, at what fidelity, who survived."""

    rung: int
    #: seeds per candidate in this rung
    fidelity: int
    evaluated: int
    failed: int
    #: labels promoted to the next rung (the full ranking for the last)
    kept: Tuple[str, ...]

    def to_json(self) -> dict:
        return {
            "rung": self.rung,
            "fidelity": self.fidelity,
            "evaluated": self.evaluated,
            "failed": self.failed,
            "kept": list(self.kept),
        }


@dataclass
class TuneResult(ResultBase):
    """Outcome of one :func:`repro.tune.autotune` search."""

    #: cheapest configuration whose worst-case outcome met every bound;
    #: ``None`` when the constraints admitted nothing
    winner: Optional[CandidateOutcome]
    #: final-rung outcomes, best score first
    outcomes: Tuple[CandidateOutcome, ...]
    #: non-dominated final-rung menu on realized (makespan, cost),
    #: fastest first — the near-misses worth a second look
    frontier: Tuple[CandidateOutcome, ...]
    rungs: Tuple[RungRecord, ...]
    constraints: Optional[Constraints]
    space: TuneSpace
    workflow_name: str
    scenario: str
    seed: int
    n_candidates: int
    eta: int
    #: candidates whose evaluation crashed or timed out (dropped)
    failures: List[CellFailure] = field(default_factory=list)
    #: the concrete tuned workflow instance and platform — provenance
    #: for re-simulating outcomes; deliberately not part of ``to_json()``
    workflow: Optional[Workflow] = None
    platform: Optional[CloudPlatform] = None

    @property
    def feasible(self) -> bool:
        """Did the search find any configuration meeting the bounds?"""
        return self.winner is not None

    def outcome(self, label: str) -> CandidateOutcome:
        for o in self.outcomes:
            if o.label == label:
                return o
        from repro.errors import ExperimentError
        from repro.util.suggest import unknown_name_message

        raise ExperimentError(
            unknown_name_message(
                "tuned candidate", label, (o.label for o in self.outcomes)
            )
        )

    # ------------------------------------------------------------------
    # ResultBase protocol
    # ------------------------------------------------------------------
    def to_json(self) -> dict:
        return {
            "workflow": self.workflow_name,
            "scenario": self.scenario,
            "seed": self.seed,
            "n_candidates": self.n_candidates,
            "eta": self.eta,
            "constraints": (
                self.constraints.to_json() if self.constraints is not None else None
            ),
            "space": self.space.to_json(),
            "winner": self.winner.to_json() if self.winner is not None else None,
            "frontier": [o.to_json() for o in self.frontier],
            "outcomes": [o.to_json() for o in self.outcomes],
            "rungs": [r.to_json() for r in self.rungs],
            "failures": [f.label for f in self.failures],
        }

    def summary(self) -> str:
        bounds = (
            self.constraints.describe()
            if self.constraints is not None
            else "unconstrained"
        )
        frontier_labels = {o.label for o in self.frontier}
        rows = []
        for o in self.outcomes:
            mark = ""
            if self.winner is not None and o.label == self.winner.label:
                mark = ">"
            elif o.label in frontier_labels:
                mark = "*"
            rows.append(
                (
                    mark + o.label,
                    "yes" if o.metrics.feasible else
                    ("-" if o.metrics.feasible is None else "NO"),
                    o.fidelity,
                    o.makespan,
                    o.cost,
                    o.metrics.violation_summary() or "",
                )
            )
        table = format_table(
            ["candidate (>=winner, *=Pareto)", "ok", "seeds", "worst s", "worst $", "violations"],
            rows,
            float_fmt=".2f",
            title=f"Autotune — {self.workflow_name}/{self.scenario}, {bounds}",
            align_right=False,
        )
        if self.winner is not None:
            head = (
                f"winner: {self.winner.label} — worst makespan "
                f"{self.winner.makespan:.0f}s, worst cost "
                f"${self.winner.cost:.2f} over {self.winner.fidelity} seed(s)"
            )
        else:
            head = f"no feasible configuration for {bounds}"
        ladder = "; ".join(
            f"rung {r.rung}: {r.evaluated}@{r.fidelity} seed(s) -> {len(r.kept)}"
            for r in self.rungs
        )
        text = f"{head}\nsearch: {ladder}\n{table}"
        if self.failures:
            lost = "\n".join(f"  {f}" for f in self.failures)
            text += f"\ndropped candidates ({len(self.failures)}):\n{lost}"
        return text
