"""Deadline/budget hard constraints on schedules and realized runs.

The paper compares strategies on unconstrained makespan and cost; the
operator's real question is usually constrained — *which configuration
is cheapest while still meeting my deadline?* (Thai et al.,
arXiv:1507.05470; Gajbhiye & Singh, arXiv:1806.02397).  A
:class:`Constraints` object is the library-wide spelling of that
question:

* the metric layer (:func:`repro.core.metrics.evaluate` /
  :func:`~repro.core.metrics.compare_to_reference`) stamps every
  :class:`~repro.core.metrics.ScheduleMetrics` with a ``feasible`` flag
  and the violation breakdown when constraints are given;
* the service layer's per-tenant ``--tenant-budget`` admission is the
  same object with only ``budget`` set
  (:class:`repro.service.admission.BudgetGuardAdmission`);
* the autotuner (:func:`repro.tune.autotune`) searches for the cheapest
  configuration whose *re-simulated* outcome satisfies them.

A constraint is *hard*: there is no scoring blend, an outcome either
satisfies every bound or it is infeasible, and every miss is reported
as a :class:`ConstraintViolation` naming the bound, the actual value
and the excess.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.errors import ExperimentError

#: the recognised constraint axes, in reporting order
CONSTRAINT_NAMES = ("deadline", "budget", "max_vms")


@dataclass(frozen=True)
class ConstraintViolation:
    """One bound an outcome missed: what was allowed vs. what happened."""

    #: which bound: ``"deadline"``, ``"budget"`` or ``"max_vms"``
    constraint: str
    #: the bound's limit (seconds, USD, or a VM count)
    limit: float
    #: the realized value that exceeded it
    actual: float

    @property
    def excess(self) -> float:
        """How far past the limit the outcome landed (> 0 by construction)."""
        return self.actual - self.limit

    def __str__(self) -> str:
        unit = {"deadline": "s", "budget": "$", "max_vms": " VMs"}[self.constraint]
        return (
            f"{self.constraint}: {self.actual:g}{unit} > "
            f"{self.limit:g}{unit} limit (+{self.excess:g})"
        )


@dataclass(frozen=True)
class Constraints:
    """Hard bounds an acceptable outcome must satisfy.

    ``None`` leaves an axis unconstrained; ``Constraints()`` accepts
    everything.  ``deadline`` bounds the (realized) makespan in seconds,
    ``budget`` the total cost in USD, ``max_vms`` the rented-VM count.
    """

    deadline: Optional[float] = None
    budget: Optional[float] = None
    max_vms: Optional[int] = None

    def __post_init__(self) -> None:
        # "not (ok)" also refuses NaN, which fails every comparison
        if self.deadline is not None and not (self.deadline > 0):
            raise ExperimentError(
                f"deadline must be positive seconds, got {self.deadline}"
            )
        if self.budget is not None and not (self.budget > 0):
            raise ExperimentError(f"budget must be positive USD, got {self.budget}")
        if self.max_vms is not None and not (self.max_vms >= 1):
            raise ExperimentError(f"max_vms must be >= 1, got {self.max_vms}")

    # ------------------------------------------------------------------
    @property
    def unconstrained(self) -> bool:
        """True when no axis is bounded (everything is feasible)."""
        return self.deadline is None and self.budget is None and self.max_vms is None

    def check(
        self,
        makespan: Optional[float] = None,
        cost: Optional[float] = None,
        vm_count: Optional[int] = None,
    ) -> Tuple[ConstraintViolation, ...]:
        """The violations of one outcome, in :data:`CONSTRAINT_NAMES`
        order; empty means feasible.  Axes whose actual value is not
        supplied are skipped (they cannot be judged)."""
        out = []
        if self.deadline is not None and makespan is not None and makespan > self.deadline:
            out.append(ConstraintViolation("deadline", self.deadline, makespan))
        if self.budget is not None and cost is not None and cost > self.budget:
            out.append(ConstraintViolation("budget", self.budget, cost))
        if self.max_vms is not None and vm_count is not None and vm_count > self.max_vms:
            out.append(
                ConstraintViolation("max_vms", float(self.max_vms), float(vm_count))
            )
        return tuple(out)

    def feasible(
        self,
        makespan: Optional[float] = None,
        cost: Optional[float] = None,
        vm_count: Optional[int] = None,
    ) -> bool:
        """Does the outcome satisfy every bound?"""
        return not self.check(makespan=makespan, cost=cost, vm_count=vm_count)

    def check_schedule(self, schedule) -> Tuple[ConstraintViolation, ...]:
        """Violations of a static :class:`~repro.core.schedule.Schedule`
        (planned makespan/cost/VM count)."""
        return self.check(
            makespan=schedule.makespan,
            cost=schedule.total_cost,
            vm_count=schedule.vm_count,
        )

    # ------------------------------------------------------------------
    def describe(self) -> str:
        """Human-readable one-liner, e.g. ``deadline<=3600s, budget<=$12``."""
        parts = []
        if self.deadline is not None:
            parts.append(f"deadline<={self.deadline:g}s")
        if self.budget is not None:
            parts.append(f"budget<=${self.budget:g}")
        if self.max_vms is not None:
            parts.append(f"max_vms<={self.max_vms}")
        return ", ".join(parts) if parts else "unconstrained"

    def to_json(self) -> dict:
        """JSON-stable form (the tune manifest embeds this)."""
        return {
            "deadline": self.deadline,
            "budget": self.budget,
            "max_vms": self.max_vms,
        }

    @classmethod
    def from_json(cls, data: dict) -> "Constraints":
        known = set(CONSTRAINT_NAMES)
        unknown = set(data) - known
        if unknown:
            from repro.util.suggest import unknown_name_message

            raise ExperimentError(
                unknown_name_message("constraint", sorted(unknown)[0], known)
            )
        return cls(
            deadline=data.get("deadline"),
            budget=data.get("budget"),
            max_vms=data.get("max_vms"),
        )
