"""Virtual machine lifecycle and accounting.

A :class:`VM` records the tasks placed on it as timed
:class:`Placement` rows.  The VM is rented from its first task's start
to its last task's finish (the paper ignores boot time via pre-booting;
an optional boot time extends the rent window at the front).  Billing
and idle accounting follow the paper: paid time is the uptime rounded up
to whole BTUs; idle time is paid time minus busy time — i.e. it includes
both gaps in the schedule and the unused tail of the last BTU.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.cloud.billing import BillingModel
from repro.cloud.instance import InstanceType
from repro.cloud.region import Region
from repro.errors import InvalidScheduleError
from repro.util.intervals import Interval, IntervalSet


@dataclass(frozen=True)
class Placement:
    """One task execution on one VM."""

    task_id: str
    start: float
    end: float

    def __post_init__(self) -> None:
        if self.start < 0 or self.end < self.start:
            raise InvalidScheduleError(
                f"bad placement for {self.task_id!r}: [{self.start}, {self.end})"
            )

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def interval(self) -> Interval:
        return Interval(self.start, self.end)


@dataclass
class VM:
    """A rented virtual machine and the executions it hosted."""

    id: int
    itype: InstanceType
    region: Region
    boot_seconds: float = 0.0
    placements: List[Placement] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.boot_seconds < 0:
            raise InvalidScheduleError("boot_seconds must be >= 0")
        #: running max placement end — lets ``place`` prove in O(1) that
        #: an in-order append cannot overlap anything (not a dataclass
        #: field: derived state, excluded from eq/repr)
        self._max_end = max((p.end for p in self.placements), default=float("-inf"))

    @property
    def name(self) -> str:
        return f"vm{self.id}-{self.itype.short}"

    # ------------------------------------------------------------------
    # placement
    # ------------------------------------------------------------------
    def place(self, task_id: str, start: float, duration: float) -> Placement:
        """Record a task execution; executions on one VM must not overlap.

        Every production caller (the builder freeze, the executors)
        places in execution order, so the common case — the new start is
        at or past every recorded end — appends in O(1).  Out-of-order
        inserts fall back to the historical full overlap scan + re-sort,
        keeping behavior identical for arbitrary callers.
        """
        p = Placement(task_id, start, start + duration)
        ps = self.placements
        if not ps or (
            p.start >= self._max_end
            and (p.start, p.task_id) >= (ps[-1].start, ps[-1].task_id)
        ):
            ps.append(p)
        else:
            for existing in ps:
                if existing.interval.overlaps(p.interval):
                    raise InvalidScheduleError(
                        f"{self.name}: {task_id!r} {p.interval} overlaps "
                        f"{existing.task_id!r} {existing.interval}"
                    )
            ps.append(p)
            ps.sort(key=lambda q: (q.start, q.task_id))
        if p.end > self._max_end:
            self._max_end = p.end
        return p

    @property
    def task_ids(self) -> List[str]:
        return [p.task_id for p in self.placements]

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    @property
    def busy_seconds(self) -> float:
        return sum(p.duration for p in self.placements)

    def busy_intervals(self) -> IntervalSet:
        return IntervalSet(p.interval for p in self.placements)

    @property
    def rent_start(self) -> float:
        if not self.placements:
            raise InvalidScheduleError(f"{self.name} hosted no task")
        return self.placements[0].start - self.boot_seconds

    @property
    def rent_end(self) -> float:
        if not self.placements:
            raise InvalidScheduleError(f"{self.name} hosted no task")
        return self.placements[-1].end

    @property
    def uptime_seconds(self) -> float:
        return self.rent_end - self.rent_start

    def paid_seconds(self, billing: BillingModel) -> float:
        return billing.paid_seconds(self.uptime_seconds)

    def idle_seconds(self, billing: BillingModel) -> float:
        """Paid-but-unused time: schedule gaps + the last BTU's tail."""
        return self.paid_seconds(billing) - self.busy_seconds

    def cost(self, billing: BillingModel) -> float:
        """Rent in USD: the paper's fixed-price BTU arithmetic.  Realized
        market rent is the executors' business
        (:meth:`~repro.cloud.billing.BillingModel.realized_cost`)."""
        return billing.vm_cost(self.uptime_seconds, self.itype, self.region)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"VM({self.name}, tasks={self.task_ids})"
