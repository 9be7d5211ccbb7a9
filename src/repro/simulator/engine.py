"""Minimal deterministic discrete-event engine.

The engine advances a clock through a min-heap of
:class:`~repro.simulator.events.ScheduledEvent` records; actions
scheduled during processing land back in the same heap.  Time never
moves backwards, simultaneous events fire in scheduling order (the
record's ``seq``), and a configurable event budget guards against
accidental infinite loops in user actions.

The heap is the simulator's own: :meth:`Simulator.at` pushes the record
and :meth:`Simulator.run` pops it straight off ``heap[0]``, one heap
operation each, with no queue object in between.
"""

from __future__ import annotations

import itertools
from heapq import heappop, heappush
from typing import Callable, List, Optional

from repro.errors import SimulationError
from repro.obs.tracer import Tracer, ensure_tracer
from repro.simulator.events import ScheduledEvent


class Simulator:
    """The clock + event heap core shared by all simulations.

    *tracer*, when given, receives an ``engine.run`` wall-clock span and
    a ``sim.events_processed`` counter sample per :meth:`run` call; the
    default :data:`~repro.obs.tracer.NULL_TRACER` keeps the event loop
    untouched (the emission happens outside it either way).
    """

    def __init__(
        self, max_events: int = 10_000_000, tracer: Optional[Tracer] = None
    ) -> None:
        if max_events <= 0:
            raise SimulationError("max_events must be positive")
        self._heap: List[ScheduledEvent] = []
        self._seq = itertools.count()
        self._now = 0.0
        self._max_events = max_events
        self._processed = 0
        self._running = False
        self.tracer = ensure_tracer(tracer)

    @property
    def now(self) -> float:
        return self._now

    @property
    def processed_events(self) -> int:
        return self._processed

    @property
    def pending_events(self) -> int:
        """Events still queued — the service loop's liveness probe."""
        return len(self._heap)

    def at(self, time: float, action: Callable[[], None], label: str = "") -> None:
        """Schedule *action* at absolute *time* (>= now).

        A time within the 1e-9 slack before the clock fires now.  The
        clock starts at 0 and never moves back, so the clock check also
        rejects any time below -1e-9; NaN passes it and is rejected by
        the second check."""
        now = self._now
        if time < now - 1e-9:
            raise SimulationError(
                f"event {label!r} scheduled at {time} but clock is at {now}"
            )
        if now > time:
            time = now
        elif time != time:
            raise SimulationError(f"cannot schedule event at time {time}")
        heappush(self._heap, ScheduledEvent(time, next(self._seq), action, label))

    def after(self, delay: float, action: Callable[[], None], label: str = "") -> None:
        """Schedule *action* *delay* seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay} for event {label!r}")
        self.at(self._now + delay, action, label)

    def run(self, until: float | None = None) -> float:
        """Process events (up to *until*, inclusive); returns final time."""
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        span = (
            self.tracer.span("engine.run", cat="engine")
            if self.tracer.enabled
            else None
        )
        if span is not None:
            span.__enter__()
        heap = self._heap
        budget = self._max_events
        try:
            while heap:
                if until is not None and heap[0].time > until:
                    break
                ev = heappop(heap)
                self._now = ev.time
                self._processed += 1
                if self._processed > budget:
                    raise SimulationError(
                        f"event budget exhausted after {budget} events "
                        f"(runaway simulation?); last event {ev.label!r} "
                        f"at t={ev.time:.6f}"
                    )
                ev.action()
        finally:
            self._running = False
            if span is not None:
                span.__exit__(None, None, None)
                self.tracer.counter("sim.events_processed", self._processed)
        if until is not None:
            self._now = max(self._now, until)
        return self._now
