"""Tenant arrival streams: who submits which workflow, when.

A service run is driven by a sequence of :class:`WorkflowRequest`
objects — (tenant, workflow, arrival time, optional budget/deadline).
Streams can be synthesized (Poisson arrivals over a tenant population,
:func:`poisson_arrivals`) or replayed from a trace of explicit rows
(:func:`trace_arrivals`).  Generation is seed-deterministic: the same
seed yields the same stream object for object, which the determinism
tests rely on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.core.constraints import Constraints
from repro.errors import ExperimentError
from repro.util.rng import ensure_rng
from repro.workflows.dag import Workflow


@dataclass(frozen=True)
class WorkflowRequest:
    """One tenant submission entering the service at *arrival* seconds."""

    tenant: str
    workflow: Workflow
    arrival: float
    #: request name, unique within a stream (defaults to tenant/index)
    name: str = ""
    #: per-tenant spending cap in USD (inf = unconstrained); the budget
    #: guard reads the *tenant's* budget off its first request
    budget: float = float("inf")
    #: soft completion target, seconds after arrival (reported, never
    #: enforced — the hard-constraint policies reject, they do not kill)
    deadline: float = float("inf")

    def __post_init__(self) -> None:
        # non-finite input is refused here, not deep inside the event
        # loop; NaN fails every comparison, hence the "not (ok)" forms
        if not math.isfinite(self.arrival):
            raise ExperimentError(f"arrival time must be finite, got {self.arrival}")
        if self.arrival < 0:
            raise ExperimentError(f"negative arrival time {self.arrival}")
        if not (self.budget > 0):
            raise ExperimentError(f"budget must be positive, got {self.budget}")
        if not (self.deadline > 0):
            raise ExperimentError(f"deadline must be positive, got {self.deadline}")
        if not self.tenant:
            raise ExperimentError("request needs a tenant id")

    @property
    def constraints(self) -> Constraints:
        """The request's bounds as the library-wide
        :class:`~repro.core.constraints.Constraints` spelling
        (``inf`` axes map to unconstrained)."""
        return Constraints(
            deadline=None if self.deadline == float("inf") else self.deadline,
            budget=None if self.budget == float("inf") else self.budget,
        )


def _sorted_stream(requests: Iterable[WorkflowRequest]) -> Tuple[WorkflowRequest, ...]:
    """Stable arrival order: ties broken by submission index, never by
    tenant name, so streams replay in exactly the generated order."""
    return tuple(sorted(requests, key=lambda r: r.arrival))


def poisson_arrivals(
    workflows: "Workflow | Sequence[Workflow]",
    count: int,
    tenants: int,
    mean_interarrival: float,
    seed=None,
    budget: "float | Constraints" = float("inf"),
) -> Tuple[WorkflowRequest, ...]:
    """*count* submissions with exponential inter-arrivals, tenants and
    workflow shapes drawn uniformly per submission.

    One RNG drives all three draws in a fixed order (gap, tenant,
    shape), so a stream is fully determined by ``(count, tenants,
    mean_interarrival, seed)``.  *budget* caps every tenant, spelled
    either as a plain USD float or as a
    :class:`~repro.core.constraints.Constraints` with ``budget`` set.
    """
    if isinstance(budget, Constraints):
        budget = float("inf") if budget.budget is None else budget.budget
    if count < 1:
        raise ExperimentError("count must be >= 1")
    if tenants < 1:
        raise ExperimentError("tenants must be >= 1")
    if not math.isfinite(mean_interarrival):
        raise ExperimentError(
            f"mean_interarrival must be finite, got {mean_interarrival}"
        )
    if mean_interarrival < 0:
        raise ExperimentError("mean_interarrival must be >= 0")
    if isinstance(workflows, Workflow):
        workflows = [workflows]
    shapes: List[Workflow] = list(workflows)
    if not shapes:
        raise ExperimentError("poisson_arrivals needs at least one workflow shape")
    rng = ensure_rng(seed)
    width = len(str(tenants - 1))
    t = 0.0
    out: List[WorkflowRequest] = []
    for i in range(count):
        tenant_idx = int(rng.integers(tenants))
        shape = shapes[int(rng.integers(len(shapes)))]
        tenant = f"tenant{tenant_idx:0{width}d}"
        out.append(
            WorkflowRequest(
                tenant=tenant,
                workflow=shape,
                arrival=t,
                name=f"{tenant}/{shape.name}#{i}",
                budget=budget,
            )
        )
        if mean_interarrival:
            t += float(rng.exponential(mean_interarrival))
    return _sorted_stream(out)


def trace_arrivals(
    rows: Iterable[Tuple],
    workflows: Dict[str, Workflow],
) -> Tuple[WorkflowRequest, ...]:
    """Build a stream from explicit trace rows.

    Each row is ``(tenant, workflow_name, arrival)`` with optional
    trailing ``budget`` and ``deadline`` entries; *workflows* maps the
    names to DAGs.  Rows may be unordered — the stream is sorted by
    arrival with the original row order breaking ties.
    """
    out: List[WorkflowRequest] = []
    for i, row in enumerate(rows):
        if len(row) < 3:
            raise ExperimentError(
                f"trace row {i} needs (tenant, workflow, arrival), got {row!r}"
            )
        tenant, wf_name, arrival = row[0], row[1], float(row[2])
        if wf_name not in workflows:
            known = ", ".join(sorted(workflows))
            raise ExperimentError(
                f"trace row {i}: unknown workflow {wf_name!r} (known: {known})"
            )
        budget = float(row[3]) if len(row) > 3 else float("inf")
        deadline = float(row[4]) if len(row) > 4 else float("inf")
        out.append(
            WorkflowRequest(
                tenant=str(tenant),
                workflow=workflows[wf_name],
                arrival=arrival,
                name=f"{tenant}/{wf_name}#{i}",
                budget=budget,
                deadline=deadline,
            )
        )
    if not out:
        raise ExperimentError("trace_arrivals got an empty trace")
    return _sorted_stream(out)
