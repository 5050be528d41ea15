"""Unit tests for piecewise-constant rate profiles."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from repro.errors import InvalidTermError, UndefinedOperationError
from repro.intervals import Interval
from repro.resources import RateProfile
from repro.resources.profile import (
    _reference_earliest_accumulation,
    _reference_integral,
)


def const(rate, start, end):
    return RateProfile.constant(rate, Interval(start, end))


class TestConstruction:
    def test_zero(self):
        z = RateProfile.zero()
        assert z.is_zero
        assert z.rate_at(3) == 0
        assert not z

    def test_constant(self):
        p = const(5, 0, 10)
        assert p.rate_at(0) == 5
        assert p.rate_at(9.99) == 5
        assert p.rate_at(10) == 0
        assert p.rate_at(-1) == 0

    def test_constant_zero_rate_is_zero_profile(self):
        assert const(0, 0, 10).is_zero

    def test_constant_empty_window_is_zero_profile(self):
        assert const(5, 3, 3).is_zero

    def test_negative_rate_rejected(self):
        with pytest.raises(InvalidTermError):
            RateProfile([(0, -1)])

    def test_nan_rate_rejected(self):
        with pytest.raises(InvalidTermError):
            RateProfile([(0, float("nan"))])

    def test_nan_breakpoint_time_rejected(self):
        """A NaN time used to sort anywhere and read as an empty profile
        (``integral`` answered 0)."""
        with pytest.raises(InvalidTermError, match="NaN"):
            RateProfile([(0, 1), (math.nan, 0)])

    def test_from_segments_overlap_adds(self):
        p = RateProfile.from_segments(
            [(Interval(0, 4), 2), (Interval(2, 6), 3)]
        )
        assert p.rate_at(1) == 2
        assert p.rate_at(3) == 5
        assert p.rate_at(5) == 3

    def test_normalisation_merges_equal_rates(self):
        p = RateProfile([(0, 5), (3, 5), (10, 0)])
        assert p.breakpoints == ((0, 5), (10, 0))

    def test_normalisation_drops_leading_zero(self):
        p = RateProfile([(0, 0), (5, 3), (10, 0)])
        assert p.breakpoints == ((5, 3), (10, 0))

    def test_open_ended_profile(self):
        p = RateProfile([(2, 4)])
        assert p.rate_at(1_000_000) == 4
        assert math.isinf(p.horizon) is False  # horizon is last breakpoint time


class TestQueries:
    def test_segments(self):
        p = RateProfile([(0, 2), (3, 0), (5, 7), (9, 0)])
        assert list(p.segments()) == [
            (Interval(0, 3), 2),
            (Interval(5, 9), 7),
        ]

    def test_peak_rate(self):
        p = RateProfile([(0, 2), (3, 9), (5, 0)])
        assert p.peak_rate == 9

    def test_integral_full(self):
        assert const(5, 0, 10).integral(Interval(0, 10)) == 50

    def test_integral_partial(self):
        assert const(5, 0, 10).integral(Interval(8, 12)) == 10

    def test_integral_outside(self):
        assert const(5, 0, 10).integral(Interval(20, 30)) == 0

    def test_integral_multi_segment(self):
        p = RateProfile([(0, 2), (4, 6), (8, 0)])
        # 2 over (0,4) + 6 over (4,8) = 8 + 24
        assert p.integral(Interval(0, 8)) == 32
        assert p.integral(Interval(3, 5)) == 2 + 6

    def test_min_rate(self):
        p = RateProfile([(0, 2), (4, 6), (8, 0)])
        assert p.min_rate(Interval(0, 8)) == 2
        assert p.min_rate(Interval(5, 7)) == 6

    def test_min_rate_zero_on_gap(self):
        p = RateProfile([(0, 2), (3, 0), (5, 7), (9, 0)])
        assert p.min_rate(Interval(2, 6)) == 0

    def test_min_rate_rejects_empty_window(self):
        with pytest.raises(UndefinedOperationError):
            const(1, 0, 5).min_rate(Interval(2, 2))


class TestEarliestAccumulation:
    def test_simple(self):
        assert const(5, 0, 10).earliest_accumulation(0, 20) == 4

    def test_from_offset(self):
        assert const(5, 0, 10).earliest_accumulation(2, 20) == 6

    def test_exact_fraction(self):
        t = const(3, 0, 10).earliest_accumulation(0, 10)
        assert t == Fraction(10, 3)

    def test_across_gap(self):
        p = RateProfile([(0, 2), (2, 0), (5, 2), (10, 0)])
        # 4 units by t=2, need 6 more -> 3 time units from t=5
        assert p.earliest_accumulation(0, 10) == 8

    def test_never_enough(self):
        assert const(2, 0, 5).earliest_accumulation(0, 11) is None

    def test_zero_quantity_is_start(self):
        assert const(2, 0, 5).earliest_accumulation(3, 0) == 3

    def test_start_after_supply(self):
        assert const(2, 0, 5).earliest_accumulation(5, 1) is None

    def test_open_ended_supply(self):
        p = RateProfile([(0, 2)])
        assert p.earliest_accumulation(0, 100) == 50


class TestAlgebra:
    def test_add(self):
        p = const(2, 0, 4) + const(3, 2, 6)
        assert p.rate_at(1) == 2
        assert p.rate_at(3) == 5
        assert p.rate_at(5) == 3

    def test_add_zero_identity(self):
        p = const(2, 0, 4)
        assert (p + RateProfile.zero()) == p
        assert (RateProfile.zero() + p) == p

    def test_subtract(self):
        p = const(5, 0, 10) - const(2, 2, 6)
        assert p.rate_at(1) == 5
        assert p.rate_at(3) == 3
        assert p.rate_at(7) == 5

    def test_subtract_to_zero(self):
        p = const(5, 0, 10) - const(5, 0, 10)
        assert p.is_zero

    def test_subtract_negative_rejected(self):
        with pytest.raises(UndefinedOperationError):
            const(2, 0, 10) - const(3, 4, 6)

    def test_subtract_float_tolerance(self):
        a = const(0.3, 0, 1)
        b = const(0.1, 0, 1) + const(0.2, 0, 1)
        # 0.1 + 0.2 > 0.3 in floats; tolerance must absorb it
        result = a.subtract(b)
        assert result.is_zero or result.peak_rate < 1e-9

    def test_scale(self):
        assert const(2, 0, 4).scale(3) == const(6, 0, 4)

    def test_scale_zero(self):
        assert const(2, 0, 4).scale(0).is_zero

    def test_scale_negative_rejected(self):
        with pytest.raises(InvalidTermError):
            const(2, 0, 4).scale(-1)

    def test_clamp(self):
        p = const(5, 0, 10).clamp(Interval(3, 6))
        assert p == const(5, 3, 6)

    def test_clamp_beyond_support(self):
        assert const(5, 0, 10).clamp(Interval(20, 30)).is_zero

    def test_clamp_open_window(self):
        p = const(5, 0, 10).clamp(Interval(3, math.inf))
        assert p == const(5, 3, 10)

    def test_shift(self):
        assert const(5, 0, 10).shift(3) == const(5, 3, 13)

    def test_cap(self):
        p = const(5, 0, 10).cap(const(3, 2, 6))
        assert p.rate_at(1) == 0
        assert p.rate_at(3) == 3
        assert p.rate_at(8) == 0

    def test_dominates(self):
        assert const(5, 0, 10).dominates(const(3, 2, 6))
        assert not const(3, 2, 6).dominates(const(5, 0, 10))
        assert const(1, 0, 1).dominates(RateProfile.zero())

    def test_addition_commutes(self):
        a = RateProfile([(0, 2), (4, 6), (8, 0)])
        b = const(1, 3, 9)
        assert a + b == b + a

    def test_add_then_subtract_roundtrip(self):
        a = RateProfile([(0, 2), (4, 6), (8, 0)])
        b = const(1, 3, 9)
        assert (a + b) - b == a


class TestNonFiniteArguments:
    """A NaN query argument used to answer silently (``rate_at`` read 0,
    the accumulation walks read ``None``), and ``scale(inf)`` failed on
    the NaN it minted from a zero rate, naming the rate instead of the
    factor.  Each now raises at entry and names the bad argument, on the
    float arrays and on the tuple form alike."""

    PROFILES = (
        RateProfile(((0, 2.0), (10, 0))),
        RateProfile(((0, 2.0), (10, 0))) + RateProfile(((5.0, 1.0), (7.0, 0))),
        RateProfile(((0, 2), (10, 0))),
        RateProfile.zero(),
    )

    @pytest.mark.parametrize("profile", PROFILES)
    def test_rate_at_rejects_nan(self, profile):
        with pytest.raises(InvalidTermError, match=r"rate_at: time t .*NaN"):
            profile.rate_at(math.nan)

    @pytest.mark.parametrize("profile", PROFILES)
    def test_rates_at_rejects_nan(self, profile):
        with pytest.raises(InvalidTermError, match=r"rates_at: query time ts .*NaN"):
            profile.rates_at([1.0, math.nan])

    @pytest.mark.parametrize("profile", PROFILES)
    def test_earliest_accumulation_rejects_nan(self, profile):
        with pytest.raises(InvalidTermError, match=r"earliest_accumulation: start .*NaN"):
            profile.earliest_accumulation(math.nan, 1.0)
        with pytest.raises(InvalidTermError, match=r"earliest_accumulation: quantity .*NaN"):
            profile.earliest_accumulation(0, math.nan)

    @pytest.mark.parametrize("profile", PROFILES)
    def test_latest_accumulation_rejects_nan(self, profile):
        with pytest.raises(InvalidTermError, match=r"latest_accumulation: end .*NaN"):
            profile.latest_accumulation(math.nan, 1.0)
        with pytest.raises(InvalidTermError, match=r"latest_accumulation: quantity .*NaN"):
            profile.latest_accumulation(10, math.nan)

    @pytest.mark.parametrize("factor", [math.inf, math.nan])
    def test_scale_rejects_non_finite_factor(self, factor):
        with pytest.raises(InvalidTermError, match="scale factor must be finite"):
            const(2.0, 0, 4).scale(factor)


class TestExactTimesPastFloatRange:
    """Exact breakpoint times beyond float range: no query converts them
    to float or subtracts them from ``inf``."""

    PROFILE = ((0, 1), (10**400, 2))

    def test_segments(self):
        segments = list(RateProfile(self.PROFILE).segments())
        assert segments == [
            (Interval(0, 10**400), 1), (Interval(10**400, math.inf), 2)
        ]

    def test_earliest_accumulation_in_the_unbounded_last_segment(self):
        profile = RateProfile(self.PROFILE)
        # 10**400 from the first segment, the rest at rate 2 after it.
        assert profile.earliest_accumulation(0, 10**401) == 55 * 10**399
        assert type(profile.earliest_accumulation(0, 10**401)) is int
        assert profile.earliest_accumulation(math.inf, 1) is None

    def test_clamp_to_a_huge_exact_end(self):
        clamped = RateProfile(self.PROFILE).clamp(Interval(1, 10**401))
        assert clamped.breakpoints == ((1, 1), (10**400, 2), (10**401, 0))

    @pytest.mark.parametrize(
        "start",
        [0, 3, Fraction(1, 3), 10**401],
        ids=["0", "3", "1/3", "1e401"],
    )
    def test_positive_unbounded_tail_integrates_to_inf(self, start):
        profile = RateProfile(self.PROFILE)
        window = Interval(start, math.inf)
        for answer in (
            profile.integral(window), _reference_integral(profile, window)
        ):
            assert answer == math.inf and type(answer) is float

    @pytest.mark.parametrize(
        "start", [0, 3, Fraction(1, 3)], ids=["0", "3", "1/3"]
    )
    def test_zero_rate_tail_integrates_exactly(self, start):
        profile = RateProfile(((0, 1), (10**400, 0)))
        window = Interval(start, math.inf)
        expected = 10**400 - start
        for answer in (
            profile.integral(window), _reference_integral(profile, window)
        ):
            assert answer == expected and type(answer) is type(expected)
        assert profile.integral(Interval(0, math.inf)) == 10**400

    @pytest.mark.parametrize(
        "start", [0, 2, 10**400, 10**401], ids=["0", "2", "1e400", "1e401"]
    )
    def test_accumulation_oracle_on_the_unbounded_tail(self, start):
        profile = RateProfile(self.PROFILE)
        for quantity in (1, 10**400, 10**401):
            fast = profile.earliest_accumulation(start, quantity)
            oracle = _reference_earliest_accumulation(profile, start, quantity)
            assert fast == oracle and type(fast) is type(oracle)

    def test_unbounded_duration_past_float_range(self):
        assert Interval(10**400, math.inf).duration == math.inf


class TestFloatProfilesPastFloatRange:
    """A float profile cannot meet an exact operand past float range: its
    queries raise a typed error naming the operand, fast paths and
    oracles alike, never a bare ``OverflowError``."""

    PROFILE = ((0, 1.5), (7, 0.5))

    @pytest.mark.parametrize(
        "query, operand",
        [
            (lambda p: p.integral(Interval(1, 10**401)), "window_end"),
            (lambda p: _reference_integral(p, Interval(1, 10**401)), "window_end"),
            (lambda p: p.earliest_accumulation(0, 10**401), "quantity"),
            (
                lambda p: _reference_earliest_accumulation(p, 0, 10**401),
                "quantity",
            ),
            (lambda p: p.earliest_accumulation(10**401, 3), "start"),
            (
                lambda p: _reference_earliest_accumulation(p, 10**401, 3),
                "start",
            ),
            (
                lambda p: p.earliest_accumulation(Fraction(10**401, 3), 3),
                "start",
            ),
            (lambda p: p.latest_accumulation(10**401, 3), "end"),
        ],
        ids=[
            "integral", "integral-oracle", "accumulate-quantity",
            "accumulate-quantity-oracle", "accumulate-start",
            "accumulate-start-oracle", "accumulate-fraction-start",
            "latest-end",
        ],
    )
    def test_typed_error_names_the_operand(self, query, operand):
        with pytest.raises(UndefinedOperationError, match=operand) as excinfo:
            query(RateProfile(self.PROFILE))
        assert "past float range" in str(excinfo.value)
        assert not isinstance(excinfo.value, OverflowError)

    def test_operands_inside_float_range_still_answer(self):
        profile = RateProfile(self.PROFILE)
        window = Interval(1, 10**300)
        assert profile.integral(window) == _reference_integral(profile, window)
        # 10.5 by t=7 at rate 1.5, the last 1.5 at rate 0.5.
        assert profile.earliest_accumulation(0, 12) == 10.0
        assert _reference_earliest_accumulation(profile, 0, 12) == 10.0
