"""Unit tests for Theorem 2 (sequential computation accommodation)."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from repro.computation import ComplexRequirement, Demands
from repro.decision import (
    earliest_finish_time,
    earliest_phase_finish,
    find_schedule,
    sequential_feasible,
)
from repro.decision.sequential import _align_up, is_feasible
from repro.intervals import Interval
from repro.resources import ResourceSet, cpu, term
from repro.workloads import oracle_instance


@pytest.fixture
def pool(cpu1, net12):
    return ResourceSet.of(term(5, cpu1, 0, 10), term(2, net12, 2, 8))


def creq(phases, s, d, label="g"):
    return ComplexRequirement(phases, Interval(s, d), label=label)


class TestEarliestPhaseFinish:
    def test_single_type(self, pool, cpu1):
        assert earliest_phase_finish(pool, Demands({cpu1: 10}), 0) == 2

    def test_multi_type_takes_max(self, pool, cpu1, net12):
        # cpu: 10/5 from 0 -> 2; net: supply starts at 2, 4 units -> 4
        finish = earliest_phase_finish(pool, Demands({cpu1: 10, net12: 4}), 0)
        assert finish == 4

    def test_unsatisfiable(self, pool, net12):
        assert earliest_phase_finish(pool, Demands({net12: 13}), 0) is None


class TestFindSchedule:
    def test_breakpoints_are_witnesses(self, pool, cpu1, net12):
        req = creq([Demands({cpu1: 10}), Demands({net12: 6}), Demands({cpu1: 5})], 0, 10)
        schedule = find_schedule(pool, req)
        assert schedule is not None
        assert schedule.breakpoints == (2, 5)
        assert schedule.finish_time == 6
        assert schedule.slack == 4
        # Theorem 2: each pinned simple requirement must be satisfiable.
        pinned = req.decompose(list(schedule.breakpoints))
        for simple in pinned:
            assert simple.satisfied_by(pool)

    def test_deadline_violation(self, pool, cpu1, net12):
        req = creq([Demands({cpu1: 10}), Demands({net12: 6}), Demands({cpu1: 5})], 0, 5)
        assert find_schedule(pool, req) is None
        assert not is_feasible(pool, req)

    def test_ordering_matters(self, cpu1, net12):
        """Totals fit but the order is wrong: net is only available early,
        yet the computation needs cpu first."""
        pool = ResourceSet.of(term(5, net12, 0, 2), term(5, cpu1, 2, 4))
        ok = creq([Demands({net12: 10}), Demands({cpu1: 10})], 0, 4)
        bad = creq([Demands({cpu1: 10}), Demands({net12: 10})], 0, 4)
        assert is_feasible(pool, ok)
        assert not is_feasible(pool, bad)

    def test_consumption_totals_match_demand(self, pool, cpu1, net12):
        req = creq([Demands({cpu1: 10}), Demands({net12: 6})], 0, 10)
        schedule = find_schedule(pool, req)
        consumed = schedule.consumption()
        assert consumed.quantity(cpu1, Interval(0, 10)) == 10
        assert consumed.quantity(net12, Interval(0, 10)) == 6

    def test_consumption_within_availability(self, pool, cpu1):
        req = creq([Demands({cpu1: 30})], 0, 10)
        schedule = find_schedule(pool, req)
        assert pool.dominates(schedule.consumption())

    def test_fractional_finish_is_exact(self, cpu1):
        pool = ResourceSet.of(term(3, cpu1, 0, 10))
        req = creq([Demands({cpu1: 10})], 0, 10)
        schedule = find_schedule(pool, req)
        assert schedule.finish_time == Fraction(10, 3)

    def test_window_start_respected(self, cpu1):
        """The computation does not seek to begin before s."""
        pool = ResourceSet.of(term(5, cpu1, 0, 10))
        req = creq([Demands({cpu1: 10})], 6, 10)
        schedule = find_schedule(pool, req)
        assert schedule.assignments[0].window.start == 6
        assert schedule.finish_time == 8

    def test_gap_in_supply(self, cpu1):
        pool = ResourceSet.of(term(5, cpu1, 0, 2), term(5, cpu1, 6, 10))
        req = creq([Demands({cpu1: 20})], 0, 10)
        schedule = find_schedule(pool, req)
        assert schedule.finish_time == 8


class TestAlignment:
    def test_breakpoints_on_grid(self, cpu1):
        pool = ResourceSet.of(term(3, cpu1, 0, 10))
        req = creq([Demands({cpu1: 10}), Demands({cpu1: 3})], 0, 10)
        schedule = find_schedule(pool, req, align=1)
        assert all(float(b).is_integer() for b in schedule.breakpoints)

    def test_alignment_is_conservative(self, cpu1):
        """A requirement feasible only with fractional breakpoints is
        rejected under alignment."""
        pool = ResourceSet.of(term(3, cpu1, 0, 4))
        req = creq([Demands({cpu1: 10}), Demands({cpu1: 2})], 0, 4)
        assert find_schedule(pool, req) is not None          # exact: 10/3 + 2/3 = 4
        assert find_schedule(pool, req, align=1) is None     # grid: 4 + ... > 4

    def test_exact_multiples_not_rounded_up(self, cpu1):
        pool = ResourceSet.of(term(5, cpu1, 0, 10))
        req = creq([Demands({cpu1: 10}), Demands({cpu1: 5})], 0, 10)
        schedule = find_schedule(pool, req, align=1)
        assert schedule.breakpoints == (2,)
        assert schedule.finish_time == 3


class TestAlignUpPastFloatRange:
    """Exact boundaries past 2**53 align exactly: ``t / align`` would
    round through a float and land on a multiple below ``t``."""

    @pytest.mark.parametrize(
        "t, align, expected",
        [
            (2**53 + 1, 1, 2**53 + 1),
            (10**20 + 3, 2, 10**20 + 4),
            (10**20 + 4, 2, 10**20 + 4),
            (-3, 2, -2),
            (2**60 + 1, 2**59, 2**60 + 2**59),
        ],
    )
    def test_int_operands_stay_exact_ints(self, t, align, expected):
        aligned = _align_up(t, align)
        assert aligned == expected and type(aligned) is int

    @pytest.mark.parametrize(
        "t, align, expected, kind",
        [
            (Fraction(7, 2), 1, 4, int),
            (Fraction(2**53 * 2 + 1, 2), 1, 2**53 + 1, int),
            (3, Fraction(1, 2), 3, Fraction),
            (Fraction(7, 3), Fraction(1, 2), Fraction(5, 2), Fraction),
            (2.5, 1, 3, int),
            (0.75, 0.25, 0.75, float),
        ],
    )
    def test_other_operands_keep_their_result_types(self, t, align, expected, kind):
        aligned = _align_up(t, align)
        assert aligned == expected and type(aligned) is kind

    def test_find_schedule_starts_each_phase_after_the_last_one_finished(self, cpu1):
        base = 2**53
        pool = ResourceSet.of(term(1, cpu1, base, base + 20))
        req = creq(
            [Demands({cpu1: 4}), Demands({cpu1: 4})], base + 1, base + 20
        )
        schedule = find_schedule(pool, req, align=1)
        # Phase 0 draws 4 units at rate 1 from base + 1: it ends at
        # base + 5, a grid point (the float route gave base + 4).
        assert schedule.breakpoints == (base + 5,)
        assert schedule.finish_time == base + 9


class TestEarliestFinishTime:
    def test_ignores_deadline(self, pool, cpu1):
        req = creq([Demands({cpu1: 50})], 0, 5)
        assert find_schedule(pool, req) is None
        assert earliest_finish_time(pool, req) == 10

    def test_none_when_impossible(self, pool, cpu1):
        req = creq([Demands({cpu1: 51})], 0, 5)
        assert earliest_finish_time(pool, req) is None


class TestAgainstBruteForce:
    """Greedy earliest-finish must agree with exhaustive tree search on
    divisible instances (see workloads.oracle_instance)."""

    @pytest.mark.parametrize("seed", range(30))
    def test_sequential_agreement(self, seed, cpu1, cpu2):
        rng = random.Random(seed)
        instance = oracle_instance(
            rng, [cpu1, cpu2], max_actors=1, max_phases=3, horizon=8
        )
        component = instance.requirement.components[0]
        fast = is_feasible(instance.available, component)
        slow = sequential_feasible(instance.available, component)
        assert fast == slow, f"instance: {instance}"
