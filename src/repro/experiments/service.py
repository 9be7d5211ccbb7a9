"""WaaS service experiment: seeded multi-tenant runs + a policy sweep.

The experiment layer around :mod:`repro.service`: one seeded service
run (the ``service`` CLI artifact) renders a throughput/latency/billing
report, and :func:`run_service_sweep` fans a (policy × admission ×
seed) grid over an :class:`~repro.experiments.parallel.ExecutionBackend`
through the same guarded map the other sweeps use — each cell is
self-contained and picklable, so serial, thread and process backends
produce byte-identical rollups (a property the test suite hashes).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cloud.platform import CloudPlatform
from repro.errors import ExperimentError
from repro.experiments.parallel import (
    CellFailure,
    ExecutionBackend,
    make_backend,
    map_guarded,
)
from repro.experiments.result import ResultBase
from repro.service.arrivals import poisson_arrivals
from repro.service.loop import ServiceResult, run_service
from repro.util.tables import format_table

#: workflow shapes a service cell draws from by default — the three
#: paper DAGs with distinct structure (fan-heavy, hybrid, map-reduce)
DEFAULT_SHAPES = ("montage", "cstem", "mapreduce")


@dataclass(frozen=True)
class ServiceCell:
    """One self-contained (policy, admission, seed) service run.

    Workflow shapes travel by *name* and are rebuilt inside the worker
    from :func:`~repro.experiments.config.paper_workflows`, which is
    deterministic — so the cell pickles small and every backend sees
    identical inputs.
    """

    platform: CloudPlatform
    policy: str
    admission: str
    count: int
    tenants: int
    mean_interarrival: float
    seed: int
    shapes: Tuple[str, ...] = DEFAULT_SHAPES
    budget: float = float("inf")
    max_concurrent: Optional[int] = None


@dataclass(frozen=True)
class ServiceCellResult:
    """Rollup of one service cell (JSON-stable dict, see
    :meth:`repro.service.loop.ServiceResult.rollup`)."""

    policy: str
    admission: str
    seed: int
    rollup: dict


def build_requests(cell: ServiceCell):
    """The cell's arrival stream (deterministic in the cell fields)."""
    from repro.experiments.config import paper_workflows

    catalog = paper_workflows()
    try:
        shapes = [catalog[name] for name in cell.shapes]
    except KeyError as exc:
        known = ", ".join(sorted(catalog))
        raise ExperimentError(
            f"unknown workflow shape {exc.args[0]!r} (known: {known})"
        ) from None
    return poisson_arrivals(
        shapes,
        count=cell.count,
        tenants=cell.tenants,
        mean_interarrival=cell.mean_interarrival,
        seed=cell.seed,
        budget=cell.budget,
    )


def run_service_cell(cell: ServiceCell) -> ServiceCellResult:
    """Worker entry point: generate the stream, run the service."""
    result = run_service(
        build_requests(cell),
        cell.platform,
        policy=cell.policy,
        admission=cell.admission,
        max_concurrent=cell.max_concurrent,
    )
    return ServiceCellResult(
        policy=cell.policy,
        admission=cell.admission,
        seed=cell.seed,
        rollup=result.rollup(),
    )


def service_cell_label(cell: ServiceCell) -> str:
    return f"{cell.policy}/{cell.admission}#s{cell.seed}"


@dataclass
class ServiceSweepResult(ResultBase):
    """All cells of one service sweep, plus captured failures."""

    cells: List[ServiceCellResult] = field(default_factory=list)
    failures: List[CellFailure] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        return not self.failures

    def failure_summary(self) -> str:
        """One line per failed cell; "" when the sweep is complete."""
        return "\n".join(str(f) for f in self.failures)

    def rollups(self) -> Dict[str, dict]:
        """Label → rollup, sorted — the cross-backend identity surface."""
        return {
            f"{c.policy}/{c.admission}#s{c.seed}": c.rollup
            for c in sorted(
                self.cells, key=lambda c: (c.policy, c.admission, c.seed)
            )
        }

    # ------------------------------------------------------------------
    # ResultBase protocol
    # ------------------------------------------------------------------
    def summary(self) -> str:
        """One row per cell of the (policy × admission × seed) grid."""
        return render_service_sweep(self)

    def to_json(self) -> dict:
        return {
            "cells": self.rollups(),
            "failures": [str(f) for f in self.failures],
        }


def run_service_sweep(
    platform: CloudPlatform | None = None,
    policies: Sequence[str] = ("StartParNotExceed", "AllParExceed"),
    admissions: Sequence[str] = ("fifo", "fair"),
    seeds: "Sequence[int] | int" = 1,
    count: int = 50,
    tenants: int = 5,
    mean_interarrival: float = 600.0,
    shapes: Sequence[str] = DEFAULT_SHAPES,
    budget: float = float("inf"),
    max_concurrent: Optional[int] = None,
    jobs: int | None = None,
    backend: "str | ExecutionBackend | None" = None,
    cell_timeout: float | None = None,
) -> ServiceSweepResult:
    """Run the (policy × admission × seed) service grid."""
    platform = platform or CloudPlatform.ec2()
    if isinstance(seeds, int):
        seeds = range(seeds)
    seeds = [int(s) for s in seeds]
    if not policies or not admissions or not seeds:
        raise ExperimentError("service sweep needs at least one of each axis")
    cells = [
        ServiceCell(
            platform=platform,
            policy=policy,
            admission=admission,
            count=count,
            tenants=tenants,
            mean_interarrival=mean_interarrival,
            seed=seed,
            shapes=tuple(shapes),
            budget=budget,
            max_concurrent=max_concurrent,
        )
        for policy in policies
        for admission in admissions
        for seed in seeds
    ]
    exec_backend = make_backend(backend, jobs)
    results, failures = map_guarded(
        exec_backend,
        run_service_cell,
        cells,
        label_fn=service_cell_label,
        timeout=cell_timeout,
    )
    return ServiceSweepResult(
        cells=[r for r in results if r is not None],
        failures=failures,
    )


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------
def render_service(result: ServiceResult, title: str = "WaaS service run") -> str:
    """Headline + per-tenant tables for one service run."""
    headline = format_table(
        ["metric", "value"],
        [
            ("workflows submitted", result.submitted),
            ("admitted", result.admitted),
            ("rejected", result.rejected),
            ("completed", result.completed),
            ("makespan s", result.makespan),
            ("throughput wf/h", result.throughput_per_hour),
            ("latency p50 s", result.latency_p50),
            ("latency p99 s", result.latency_p99),
            ("fleet utilization", result.utilization),
            ("VMs rented", result.vm_count),
            ("BTUs billed", result.btus),
            ("total rent $", result.rent_cost),
        ],
        float_fmt=".3f",
        title=title,
    )
    rows = []
    for name, t in sorted(result.tenants.items()):
        rows.append(
            (
                name,
                t.submitted,
                t.admitted,
                t.rejected,
                t.completed,
                t.bill.vm_count if t.bill else 0,
                t.bill.rent_cost if t.bill else 0.0,
            )
        )
    # a 50-tenant table would drown the headline: keep the biggest
    # spenders and say how many rows were folded away
    shown = sorted(rows, key=lambda r: (-r[6], r[0]))[:10]
    tenant_table = format_table(
        ["tenant", "submitted", "admitted", "rejected", "completed", "vms", "rent $"],
        shown,
        float_fmt=".3f",
        title=f"Top tenants by spend ({len(shown)} of {len(rows)})",
    )
    return headline + "\n" + tenant_table


def render_service_sweep(sweep: ServiceSweepResult) -> str:
    """One row per cell of the (policy × admission × seed) grid."""
    rows = []
    for label, roll in sweep.rollups().items():
        rows.append(
            (
                label,
                roll["completed"],
                roll["rejected"],
                roll["throughput_per_hour"],
                roll["latency_p50"],
                roll["latency_p99"],
                roll["utilization"],
                roll["rent_cost"],
            )
        )
    text = format_table(
        [
            "cell",
            "done",
            "rejected",
            "wf/h",
            "p50 s",
            "p99 s",
            "util",
            "rent $",
        ],
        rows,
        float_fmt=".3f",
        title="WaaS service sweep",
    )
    if sweep.failures:
        lost = "\n".join(f"  {f}" for f in sweep.failures)
        text += f"\nfailed cells ({len(sweep.failures)}):\n{lost}"
    return text
