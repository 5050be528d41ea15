"""Unit tests for resource terms ``[r]_{xi}^{tau}``."""

from __future__ import annotations

import math

import pytest

from repro.errors import InvalidTermError, LocatedTypeMismatchError
from repro.intervals import Interval
from repro.resources import ResourceTerm, cpu, network, term


class TestConstruction:
    def test_factory(self, cpu1):
        t = term(5, cpu1, 0, 3)
        assert t.rate == 5
        assert t.ltype == cpu1
        assert t.window == Interval(0, 3)

    def test_negative_rate_rejected(self, cpu1):
        """Paper: resource terms cannot be negative."""
        with pytest.raises(InvalidTermError):
            term(-1, cpu1, 0, 3)

    def test_infinite_rate_rejected(self, cpu1):
        """An infinite rate would accumulate any demand at once."""
        for rate in (math.inf, -math.inf):
            with pytest.raises(InvalidTermError, match="finite"):
                term(rate, cpu1, 0, 5)

    def test_nan_rate_rejected_at_construction(self, cpu1):
        """Not first inside profile aggregation, long after the term
        was accepted."""
        with pytest.raises(InvalidTermError, match="finite"):
            term(math.nan, cpu1, 0, 5)

    def test_non_numeric_rate_rejected(self, cpu1):
        with pytest.raises(InvalidTermError):
            ResourceTerm("5", cpu1, Interval(0, 3))

    def test_bad_ltype_rejected(self):
        with pytest.raises(InvalidTermError):
            ResourceTerm(5, "cpu", Interval(0, 3))

    def test_str_matches_paper(self, cpu1):
        assert str(term(5, cpu1, 0, 3)) == "[5]_<cpu, l1>^(0, 3)"


class TestNullAndQuantity:
    def test_empty_interval_is_null(self, cpu1):
        """Paper: resources are only defined during non-empty intervals."""
        assert term(5, cpu1, 3, 3).is_null

    def test_zero_rate_is_null(self, cpu1):
        assert term(0, cpu1, 0, 3).is_null

    def test_quantity_is_rate_times_duration(self, cpu1):
        """Footnote 1: the product r x tau is the total quantity."""
        assert term(5, cpu1, 0, 3).quantity == 15

    def test_null_quantity_is_zero(self, cpu1):
        assert term(5, cpu1, 3, 3).quantity == 0

    def test_profile_roundtrip(self, cpu1):
        t = term(5, cpu1, 0, 3)
        assert t.profile().integral(Interval(0, 3)) == 15

    def test_null_profile_is_zero(self, cpu1):
        assert term(0, cpu1, 0, 3).profile().is_zero


class TestDominance:
    """The paper's term inequality: xi1 >= xi2, r1 >= r2, tau2 in tau1."""

    def test_dominates(self, cpu1):
        assert term(5, cpu1, 0, 10).dominates(term(3, cpu1, 2, 6))

    def test_ge_operator(self, cpu1):
        assert term(5, cpu1, 0, 10) >= term(3, cpu1, 2, 6)
        assert term(5, cpu1, 0, 10) > term(3, cpu1, 2, 6)

    def test_equal_terms_ge_not_gt(self, cpu1):
        t = term(5, cpu1, 0, 10)
        assert t >= t
        assert not (t > t)

    def test_rate_insufficient(self, cpu1):
        assert not term(2, cpu1, 0, 10).dominates(term(3, cpu1, 2, 6))

    def test_interval_not_contained(self, cpu1):
        """Total quantity is NOT enough: the interval must contain the
        requirement's (the paper's 'right resources at the right time')."""
        big = term(100, cpu1, 0, 2)       # quantity 200
        need = term(1, cpu1, 5, 6)        # quantity 1, but later
        assert not big.dominates(need)

    def test_type_mismatch(self, cpu1, cpu2):
        assert not term(5, cpu1, 0, 10).dominates(term(1, cpu2, 2, 6))

    def test_null_dominated_by_all(self, cpu1):
        assert term(1, cpu1, 0, 1).dominates(term(0, cpu1, 0, 1))

    def test_null_dominates_nothing(self, cpu1):
        assert not term(0, cpu1, 0, 1).dominates(term(1, cpu1, 0, 1))


class TestSubtraction:
    def test_paper_shape(self, cpu1):
        """[r1]^{tau1} - [r2]^{tau2} = {[r1]^{tau1 \\ tau2}, [r1-r2]^{tau2}}"""
        left = term(5, cpu1, 0, 3)
        right = term(3, cpu1, 1, 2)
        pieces = sorted(left.subtract(right), key=lambda t: (t.window.start, t.rate))
        assert [(p.rate, p.window.start, p.window.end) for p in pieces] == [
            (5, 0, 1),
            (2, 1, 2),
            (5, 2, 3),
        ]

    def test_exact_cancel_drops_null(self, cpu1):
        left = term(5, cpu1, 0, 3)
        assert left.subtract(term(5, cpu1, 0, 3)) == ()

    def test_suffix_remainder(self, cpu1):
        pieces = term(5, cpu1, 0, 10).subtract(term(5, cpu1, 0, 4))
        assert [(p.rate, p.window.start, p.window.end) for p in pieces] == [(5, 4, 10)]

    def test_not_dominated_rejected(self, cpu1):
        with pytest.raises(InvalidTermError):
            term(2, cpu1, 0, 3).subtract(term(3, cpu1, 1, 2))

    def test_type_mismatch_rejected(self, cpu1, cpu2):
        with pytest.raises(LocatedTypeMismatchError):
            term(5, cpu1, 0, 3).subtract(term(1, cpu2, 1, 2))

    def test_subtract_null_is_identity(self, cpu1):
        t = term(5, cpu1, 0, 3)
        assert t.subtract(term(0, cpu1, 1, 2)) == (t,)
