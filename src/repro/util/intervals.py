"""Closed-open time-interval algebra.

Used by the VM model and the schedule validator: a VM's busy time is a
set of non-overlapping ``[start, end)`` intervals, its idle time is the
gap between its paid span and that busy set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, List


@dataclass(frozen=True, order=True)
class Interval:
    """A closed-open time interval ``[start, end)`` in seconds."""

    start: float
    end: float

    def __post_init__(self) -> None:
        if math.isnan(self.start) or math.isnan(self.end):
            raise ValueError("interval bounds must not be NaN")
        if self.end < self.start:
            raise ValueError(f"interval end {self.end} < start {self.start}")

    @property
    def length(self) -> float:
        return self.end - self.start

    @property
    def empty(self) -> bool:
        return self.end == self.start

    def overlaps(self, other: "Interval") -> bool:
        """True when the two intervals share a region of positive length."""
        return self.start < other.end and other.start < self.end

    def contains(self, t: float) -> bool:
        return self.start <= t < self.end

    def intersection(self, other: "Interval") -> "Interval | None":
        lo = max(self.start, other.start)
        hi = min(self.end, other.end)
        if hi <= lo:
            return None
        return Interval(lo, hi)

    def shifted(self, dt: float) -> "Interval":
        return Interval(self.start + dt, self.end + dt)


class IntervalSet:
    """A set of disjoint, sorted intervals with union/gap queries.

    Intervals are merged on insertion when they touch or overlap, so the
    internal representation is always canonical.
    """

    def __init__(self, intervals: Iterable[Interval] = ()) -> None:
        self._intervals: List[Interval] = []
        for iv in intervals:
            self.add(iv)

    def add(self, interval: Interval) -> None:
        """Insert *interval*, merging with any touching/overlapping ones."""
        if interval.empty:
            return
        if self._intervals and interval.start > self._intervals[-1].end:
            # past every existing end (strictly, so touching still
            # merges below): append without the O(n) merge scan — the
            # common case when building a set in chronological order
            self._intervals.append(interval)
            return
        merged_start, merged_end = interval.start, interval.end
        keep: List[Interval] = []
        for iv in self._intervals:
            if iv.end < merged_start or iv.start > merged_end:
                keep.append(iv)
            else:
                merged_start = min(merged_start, iv.start)
                merged_end = max(merged_end, iv.end)
        keep.append(Interval(merged_start, merged_end))
        keep.sort()
        self._intervals = keep

    def __iter__(self) -> Iterator[Interval]:
        return iter(self._intervals)

    def __len__(self) -> int:
        return len(self._intervals)

    def __bool__(self) -> bool:
        return bool(self._intervals)

    @property
    def total_length(self) -> float:
        return sum(iv.length for iv in self._intervals)

    @property
    def span(self) -> Interval:
        """Smallest single interval covering the whole set."""
        if not self._intervals:
            return Interval(0.0, 0.0)
        return Interval(self._intervals[0].start, self._intervals[-1].end)

    def gaps(self) -> List[Interval]:
        """Maximal empty intervals strictly between members of the set."""
        out: List[Interval] = []
        for prev, nxt in zip(self._intervals, self._intervals[1:]):
            if nxt.start > prev.end:
                out.append(Interval(prev.end, nxt.start))
        return out

    def covers(self, t: float) -> bool:
        return any(iv.contains(t) for iv in self._intervals)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        parts = ", ".join(f"[{iv.start:g},{iv.end:g})" for iv in self._intervals)
        return f"IntervalSet({parts})"
