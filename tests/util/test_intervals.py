"""Tests for the closed-open interval algebra, including hypothesis
properties on merge canonicalization."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.util.intervals import Interval, IntervalSet


class TestInterval:
    def test_length(self):
        assert Interval(1.0, 4.0).length == 3.0

    def test_empty(self):
        assert Interval(2.0, 2.0).empty
        assert not Interval(2.0, 2.5).empty

    def test_rejects_reversed(self):
        with pytest.raises(ValueError):
            Interval(3.0, 1.0)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            Interval(math.nan, 1.0)

    def test_overlap_positive(self):
        assert Interval(0, 2).overlaps(Interval(1, 3))

    def test_touching_does_not_overlap(self):
        assert not Interval(0, 1).overlaps(Interval(1, 2))

    def test_contains_is_closed_open(self):
        iv = Interval(1.0, 2.0)
        assert iv.contains(1.0)
        assert not iv.contains(2.0)

    def test_intersection(self):
        assert Interval(0, 3).intersection(Interval(2, 5)) == Interval(2, 3)
        assert Interval(0, 1).intersection(Interval(2, 3)) is None

    def test_shifted(self):
        assert Interval(1, 2).shifted(0.5) == Interval(1.5, 2.5)

    def test_ordering_is_lexicographic(self):
        assert Interval(0, 5) < Interval(1, 2)
        assert Interval(1, 2) < Interval(1, 3)


class TestIntervalSet:
    def test_merges_overlapping(self):
        s = IntervalSet([Interval(0, 2), Interval(1, 3)])
        assert list(s) == [Interval(0, 3)]

    def test_merges_touching(self):
        s = IntervalSet([Interval(0, 1), Interval(1, 2)])
        assert list(s) == [Interval(0, 2)]

    def test_keeps_disjoint_sorted(self):
        s = IntervalSet([Interval(5, 6), Interval(0, 1)])
        assert list(s) == [Interval(0, 1), Interval(5, 6)]

    def test_ignores_empty(self):
        s = IntervalSet([Interval(1, 1)])
        assert len(s) == 0
        assert not s

    def test_total_length(self):
        s = IntervalSet([Interval(0, 2), Interval(4, 7)])
        assert s.total_length == 5.0

    def test_span(self):
        s = IntervalSet([Interval(1, 2), Interval(8, 9)])
        assert s.span == Interval(1, 9)
        assert IntervalSet().span == Interval(0, 0)

    def test_gaps(self):
        s = IntervalSet([Interval(0, 1), Interval(3, 4), Interval(4.5, 5)])
        assert s.gaps() == [Interval(1, 3), Interval(4, 4.5)]

    def test_covers(self):
        s = IntervalSet([Interval(0, 1)])
        assert s.covers(0.5)
        assert not s.covers(1.5)


_intervals = st.builds(
    lambda a, b: Interval(min(a, b), max(a, b)),
    st.floats(0, 1000, allow_nan=False),
    st.floats(0, 1000, allow_nan=False),
)


class TestIntervalSetProperties:
    @given(st.lists(_intervals, max_size=30))
    def test_members_disjoint_and_sorted(self, ivs):
        s = IntervalSet(ivs)
        members = list(s)
        for a, b in zip(members, members[1:]):
            assert a.end < b.start  # strictly separated (touching merged)

    @given(st.lists(_intervals, max_size=30))
    def test_total_length_bounded_by_span(self, ivs):
        s = IntervalSet(ivs)
        assert s.total_length <= s.span.length + 1e-9

    @given(st.lists(_intervals, max_size=30))
    def test_insertion_order_irrelevant(self, ivs):
        assert list(IntervalSet(ivs)) == list(IntervalSet(reversed(ivs)))

    @given(st.lists(_intervals, max_size=20), _intervals)
    def test_covers_after_add(self, ivs, extra):
        s = IntervalSet(ivs)
        s.add(extra)
        if not extra.empty:
            assert s.covers(extra.start)
            mid = (extra.start + extra.end) / 2
            # for tiny intervals the float midpoint can round up onto
            # the (excluded) end bound; only probe genuinely interior
            # points of the closed-open interval
            if mid < extra.end:
                assert s.covers(mid)
