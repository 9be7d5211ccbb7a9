"""The event record of the discrete-event engine.

:class:`~repro.simulator.engine.Simulator` keeps its pending events in a
min-heap of :class:`ScheduledEvent` records and fires them in ``(time,
insertion sequence)`` order, so simultaneous events are processed
deterministically in the order they were scheduled — essential for
bit-for-bit reproducible experiments.

The record is a :class:`typing.NamedTuple` rather than the historical
frozen dataclass: heap sifts then compare plain tuples in C, and
because ``(time, seq)`` is unique per simulator the comparison never
reaches the (incomparable) ``action`` field.  Pushing an event is one
tuple allocation instead of a dataclass ``__init__`` + ``__setattr__``
guard per field — the heap sits on the simulator's innermost loop.
"""

from __future__ import annotations

from typing import Callable, NamedTuple


class ScheduledEvent(NamedTuple):
    """An action queued at a simulation time.

    Field order matters: tuple comparison orders by ``(time, seq)`` and
    — ``seq`` being unique — never reaches ``action``.
    """

    time: float
    seq: int
    action: Callable[[], None]
    label: str = ""
