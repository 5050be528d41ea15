"""Unit tests for :mod:`repro.intervals.interval`."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from repro.errors import InvalidIntervalError
from repro.intervals import EMPTY, Interval, interval, span, total_duration


class TestConstruction:
    def test_basic(self):
        i = Interval(1, 5)
        assert i.start == 1
        assert i.end == 5

    def test_factory_matches_constructor(self):
        assert interval(2, 7) == Interval(2, 7)

    def test_empty_when_start_equals_end(self):
        assert Interval(3, 3).is_empty

    def test_reversed_endpoints_rejected(self):
        with pytest.raises(InvalidIntervalError):
            Interval(5, 1)

    def test_nan_rejected(self):
        with pytest.raises(InvalidIntervalError):
            Interval(float("nan"), 1)
        with pytest.raises(InvalidIntervalError):
            Interval(0, float("nan"))

    def test_non_numeric_rejected(self):
        with pytest.raises(InvalidIntervalError):
            Interval("0", 1)

    def test_infinite_end_allowed(self):
        i = Interval(0, math.inf)
        assert math.isinf(i.duration)

    def test_cannot_start_at_positive_infinity(self):
        with pytest.raises(InvalidIntervalError):
            Interval(math.inf, math.inf)

    def test_int_endpoints_past_float_range(self):
        """Exact endpoints are never converted to float, so an int past
        float range is a time like any other."""
        i = Interval(10**400, 10**401)
        assert i.duration == 9 * 10**400 and not i.is_empty

    def test_fraction_endpoints_past_float_range(self):
        i = Interval(Fraction(-10**400, 7), 0)
        assert i.duration == Fraction(10**400, 7)

    def test_fraction_endpoints(self):
        i = Interval(Fraction(1, 3), Fraction(2, 3))
        assert i.duration == Fraction(1, 3)

    def test_immutable(self):
        i = Interval(0, 1)
        with pytest.raises(AttributeError):
            i.start = 2  # type: ignore[misc]

    def test_hashable_and_equal(self):
        assert hash(Interval(0, 1)) == hash(Interval(0, 1))
        assert Interval(0, 1) == Interval(0, 1)
        assert Interval(0, 1) != Interval(0, 2)


class TestQueries:
    def test_duration(self):
        assert Interval(2, 9).duration == 7

    def test_contains_point_half_open(self):
        i = Interval(1, 4)
        assert i.contains_point(1)
        assert i.contains_point(3.999)
        assert not i.contains_point(4)
        assert not i.contains_point(0.5)

    def test_contains_interval(self):
        outer = Interval(0, 10)
        assert outer.contains(Interval(2, 5))
        assert outer.contains(Interval(0, 10))
        assert not outer.contains(Interval(5, 11))

    def test_empty_is_subset_of_everything(self):
        assert Interval(3, 4).contains(Interval(7, 7))

    def test_overlaps(self):
        assert Interval(0, 5).overlaps(Interval(4, 9))
        assert not Interval(0, 5).overlaps(Interval(5, 9))  # meets, no overlap
        assert not Interval(0, 5).overlaps(Interval(6, 9))

    def test_empty_never_overlaps(self):
        assert not Interval(3, 3).overlaps(Interval(0, 10))
        assert not Interval(0, 10).overlaps(Interval(3, 3))

    def test_meets(self):
        assert Interval(0, 5).meets(Interval(5, 9))
        assert not Interval(0, 5).meets(Interval(4, 9))

    def test_bool_is_nonempty(self):
        assert Interval(0, 1)
        assert not Interval(1, 1)

    def test_unpacking(self):
        s, e = Interval(3, 8)
        assert (s, e) == (3, 8)


class TestSetOps:
    def test_intersection(self):
        assert Interval(0, 5).intersection(Interval(3, 9)) == Interval(3, 5)

    def test_intersection_disjoint_is_empty(self):
        assert Interval(0, 2).intersection(Interval(5, 9)).is_empty

    def test_intersection_commutative(self):
        a, b = Interval(0, 6), Interval(4, 10)
        assert a.intersection(b) == b.intersection(a)

    def test_union_pieces_overlapping(self):
        assert Interval(0, 5).union_pieces(Interval(3, 9)) == (Interval(0, 9),)

    def test_union_pieces_meeting_merges(self):
        assert Interval(0, 5).union_pieces(Interval(5, 9)) == (Interval(0, 9),)

    def test_union_pieces_disjoint(self):
        pieces = Interval(6, 9).union_pieces(Interval(0, 2))
        assert pieces == (Interval(0, 2), Interval(6, 9))

    def test_union_with_empty(self):
        assert Interval(0, 5).union_pieces(Interval(7, 7)) == (Interval(0, 5),)

    def test_difference_inner_cut(self):
        pieces = Interval(0, 10).difference(Interval(3, 6))
        assert pieces == (Interval(0, 3), Interval(6, 10))

    def test_difference_left_cut(self):
        assert Interval(0, 10).difference(Interval(0, 4)) == (Interval(4, 10),)

    def test_difference_no_overlap(self):
        assert Interval(0, 3).difference(Interval(5, 9)) == (Interval(0, 3),)

    def test_difference_total(self):
        assert Interval(2, 4).difference(Interval(0, 10)) == ()

    def test_shift(self):
        assert Interval(1, 4).shift(10) == Interval(11, 14)

    def test_clamp(self):
        assert Interval(0, 10).clamp(3, 7) == Interval(3, 7)


class TestHelpers:
    def test_span(self):
        assert span([Interval(3, 4), Interval(0, 1), Interval(8, 9)]) == Interval(0, 9)

    def test_span_skips_empty(self):
        assert span([Interval(5, 5), Interval(1, 2)]) == Interval(1, 2)

    def test_span_of_nothing(self):
        assert span([]) is None
        assert span([Interval(2, 2)]) is None

    def test_total_duration(self):
        assert total_duration([Interval(0, 3), Interval(5, 6)]) == 4

    def test_canonical_empty(self):
        assert EMPTY.is_empty
