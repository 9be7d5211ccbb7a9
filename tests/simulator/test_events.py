"""Tests for the simulator's event queue: the heap of
:class:`~repro.simulator.events.ScheduledEvent` records that
``Simulator.at`` pushes to and ``Simulator.run`` pops from."""

import pytest

from repro.errors import SimulationError
from repro.simulator.engine import Simulator
from repro.simulator.events import ScheduledEvent


class TestEventQueue:
    def test_time_order(self):
        sim = Simulator()
        fired = []
        sim.at(5.0, lambda: fired.append("late"))
        sim.at(1.0, lambda: fired.append("early"))
        sim.run()
        assert fired == ["early", "late"]

    def test_fifo_for_simultaneous(self):
        sim = Simulator()
        fired = []
        for i in range(5):
            sim.at(1.0, lambda i=i: fired.append(i))
        sim.run()
        assert fired == [0, 1, 2, 3, 4]

    def test_peek_time(self):
        """``run(until)`` reads the earliest event's time and leaves it
        queued when it lies past *until*."""
        sim = Simulator()
        fired = []
        sim.at(3.0, lambda: fired.append(sim.now))
        assert sim.run(until=2.0) == 2.0
        assert fired == [] and sim.pending_events == 1
        assert sim.run(until=3.0) == 3.0
        assert fired == [3.0] and sim.pending_events == 0

    def test_len_and_bool(self):
        """``pending_events`` counts the queued events."""
        sim = Simulator()
        assert sim.pending_events == 0
        sim.at(0.0, lambda: None)
        sim.at(0.0, lambda: sim.at(1.0, lambda: None))
        assert sim.pending_events == 2
        sim.run(until=0.0)
        assert sim.pending_events == 1
        sim.run()
        assert sim.pending_events == 0

    def test_simultaneous_tie_break_is_scheduling_order(self):
        """Events at one instant fire in the exact order they were
        scheduled, even when interleaved with events at other times and
        when their actions/labels are mutually incomparable."""
        sim = Simulator()
        fired = []

        class Action:  # deliberately unorderable: no __lt__
            def __init__(self, tag):
                self.tag = tag

            def __call__(self):
                fired.append(self.tag)

        # interleave three instants; scheduling order within t=2.0 is
        # b0, b1, b2 despite pushes at other times in between
        sim.at(2.0, Action("b0"), label="zzz")
        sim.at(9.0, Action("c"))
        sim.at(2.0, Action("b1"), label="aaa")
        sim.at(0.5, Action("a"))
        sim.at(2.0, Action("b2"))
        sim.run()
        assert fired == ["a", "b0", "b1", "b2", "c"]

    def test_event_fields(self):
        """The record orders by ``(time, seq)`` and never compares its
        action; a time inside the 1e-9 slack before the clock fires now."""
        boot = ScheduledEvent(4.5, 0, object(), label="boot")
        assert (boot.time, boot.seq, boot.label) == (4.5, 0, "boot")
        assert boot < ScheduledEvent(4.5, 1, object())
        assert ScheduledEvent(1.0, 7, lambda: None).label == ""
        sim = Simulator()
        seen = []
        sim.at(2.0, lambda: sim.at(2.0 - 1e-10, lambda: seen.append(sim.now)))
        sim.run()
        assert seen == [2.0]

    def test_pop_empty(self):
        """Running an empty queue processes nothing and keeps the clock."""
        sim = Simulator()
        assert sim.run() == 0.0
        assert sim.processed_events == 0

    def test_negative_time_rejected(self):
        with pytest.raises(SimulationError, match="clock is at 0.0"):
            Simulator().at(-1.0, lambda: None)

    def test_nan_time_rejected(self):
        with pytest.raises(SimulationError, match="cannot schedule event at time nan"):
            Simulator().at(float("nan"), lambda: None)
