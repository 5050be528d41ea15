"""Differential tests pinning the profile fast paths to their oracles.

The bisect/merge implementations in :mod:`repro.resources.profile` must
agree *exactly* — not approximately — with the retained ``_reference_*``
naive implementations, over exhaustive small-integer enumerations, so the
tier-1 theorem benchmarks cannot drift.  The same applies one level up:
the admission controller's incrementally-maintained slack must produce
byte-identical decisions to a controller that recomputes the slack from
the full committed set on every attempt.
"""

from __future__ import annotations

import itertools
import math
import random

import pytest

from repro.computation import ComplexRequirement, Demands
from repro.decision import AdmissionController
from repro.decision.concurrent import find_concurrent_schedule
from repro.errors import UndefinedOperationError
from repro.intervals import Interval
from repro.resources import RateProfile, ResourceSet, cpu, term
from repro.resources.profile import (
    _reference_earliest_accumulation,
    _reference_from_segments,
    _reference_integral,
    _reference_min_rate,
    _reference_rate_at,
    _reference_subtract,
    is_exact,
)

TIMES = (0, 1, 3, 4)
RATES = (0, 1, 2, 3)


def all_profiles(rates=RATES, times=TIMES):
    """Every canonical profile over the small breakpoint grid."""
    for combo in itertools.product(rates, repeat=len(times)):
        yield RateProfile(zip(times, combo))


QUERY_POINTS = (-1, 0, 1, 2, 3, 4, 5, 7)
WINDOWS = tuple(
    Interval(s, e)
    for s, e in itertools.combinations_with_replacement(range(-1, 6), 2)
) + (Interval(2, math.inf),)


class TestPointAndWindowQueries:
    def test_rate_at_matches_reference(self):
        for profile in all_profiles():
            for t in QUERY_POINTS:
                assert profile.rate_at(t) == _reference_rate_at(profile, t)

    def test_integral_matches_reference(self):
        for profile in all_profiles():
            for window in WINDOWS:
                fast = profile.integral(window)
                assert fast == _reference_integral(profile, window)
                # Exact inputs must yield exact outputs.
                if not window.is_empty and not math.isinf(window.end):
                    assert is_exact(fast)

    def test_min_rate_matches_reference(self):
        for profile in all_profiles():
            for window in WINDOWS:
                if window.is_empty or math.isinf(window.end):
                    continue
                assert profile.min_rate(window) == _reference_min_rate(
                    profile, window
                )

    def test_min_rate_sees_gaps_in_infinite_windows(self):
        # The oracle's old duration-sum coverage accounting saturated on
        # infinite windows (covered == inf == duration) and missed
        # interior gaps; its frontier rewrite tracks coverage by
        # comparison, so both paths now report the true minimum.
        profile = RateProfile([(4, 1)])
        assert profile.min_rate(Interval(2, math.inf)) == 0
        assert _reference_min_rate(profile, Interval(2, math.inf)) == 0
        # No gap: both agree.
        assert profile.min_rate(Interval(4, math.inf)) == 1
        assert _reference_min_rate(profile, Interval(4, math.inf)) == 1

    def test_accumulation_matches_reference(self):
        for profile in all_profiles(rates=(0, 1, 3)):
            for start in range(0, 5):
                for quantity in range(0, 9):
                    assert profile.earliest_accumulation(
                        start, quantity
                    ) == _reference_earliest_accumulation(profile, start, quantity)


class TestAlgebra:
    PROFILES = tuple(all_profiles(rates=(0, 1, 2)))

    def test_subtract_matches_reference(self):
        for left, right in itertools.product(self.PROFILES, repeat=2):
            try:
                expected = _reference_subtract(left, right)
            except UndefinedOperationError:
                with pytest.raises(UndefinedOperationError):
                    left.subtract(right)
                continue
            assert left.subtract(right) == expected

    def test_add_matches_reference_merge(self):
        for left, right in itertools.product(self.PROFILES[::7], self.PROFILES):
            merged = left + right
            for t in QUERY_POINTS:
                assert merged.rate_at(t) == _reference_rate_at(
                    left, t
                ) + _reference_rate_at(right, t)

    def test_dominates_matches_pointwise_definition(self):
        for left, right in itertools.product(self.PROFILES[::5], self.PROFILES[::3]):
            expected = all(
                _reference_rate_at(left, t) >= _reference_rate_at(right, t)
                for t in QUERY_POINTS
            )
            assert left.dominates(right) == expected


class TestFromSegments:
    def test_exhaustive_small_segments(self):
        bounds = range(0, 4)
        segment_pool = [
            (Interval(s, e), rate)
            for s, e in itertools.combinations_with_replacement(bounds, 2)
            for rate in (0, 1, 2)
        ]
        rng = random.Random(7)
        for size in (0, 1, 2, 3):
            for _ in range(120):
                segments = [rng.choice(segment_pool) for _ in range(size)]
                assert RateProfile.from_segments(
                    segments
                ) == _reference_from_segments(segments)

    def test_open_ended_segments(self):
        segments = [
            (Interval(0, math.inf), 2),
            (Interval(1, 3), 1),
            (Interval(2, math.inf), 3),
        ]
        assert RateProfile.from_segments(segments) == _reference_from_segments(
            segments
        )

    def test_float_segments_match_fold(self):
        segments = [
            (Interval(0, 4), 0.1),
            (Interval(1, 5), 0.2),
            (Interval(2, 6), 0.3),
        ]
        assert RateProfile.from_segments(segments) == _reference_from_segments(
            segments
        )

    def test_sum_matches_pairwise_fold(self):
        rng = random.Random(11)
        pool = tuple(all_profiles(rates=(0, 1, 2)))
        for size in (0, 1, 2, 3, 5):
            for _ in range(60):
                group = [rng.choice(pool) for _ in range(size)]
                folded = RateProfile.zero()
                for profile in group:
                    folded = folded + profile
                assert RateProfile.sum(group) == folded


def _seeded_requirements(rng, cpu_type, count, horizon):
    """Randomised-but-seeded single-phase arrivals inside the horizon."""
    requirements = []
    for index in range(count):
        start = rng.randrange(0, horizon - 4)
        deadline = start + rng.randrange(2, min(12, horizon - start))
        amount = rng.randrange(1, 8)
        requirements.append(
            ComplexRequirement(
                [Demands({cpu_type: amount})],
                Interval(start, deadline),
                label=f"job{index}",
            )
        )
    return requirements


class TestAdmissionDifferential:
    """Incremental slack vs full recomputation: identical decisions."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_decisions_and_schedules_agree(self, seed):
        rng = random.Random(seed)
        horizon = 40
        cpu1 = cpu("l1")
        available = ResourceSet.of(term(rng.randrange(3, 7), cpu1, 0, horizon))
        controller = AdmissionController(available)
        reference_committed = ResourceSet.empty()
        for requirement in _seeded_requirements(rng, cpu1, 30, horizon):
            concurrent = controller.can_admit(requirement)
            # Reference: slack recomputed from the full committed set.
            reference_slack = available - reference_committed
            reference_schedule = find_concurrent_schedule(
                reference_slack,
                _as_concurrent(requirement),
            )
            assert concurrent.admitted == (reference_schedule is not None)
            decision = controller.admit(requirement)
            assert decision.admitted == concurrent.admitted
            if decision.admitted:
                assert decision.schedule is not None
                assert reference_schedule is not None
                fast = decision.schedule.consumption()
                assert fast == reference_schedule.consumption()
                for got, want in zip(
                    decision.schedule.schedules, reference_schedule.schedules
                ):
                    assert got.breakpoints == want.breakpoints
                    assert got.finish_time == want.finish_time
                reference_committed = reference_committed | fast
            # The incremental cache must track the oracle exactly.
            assert controller.verify_slack()
            assert controller.expiring_slack == available - reference_committed

    @pytest.mark.parametrize("seed", [5, 6])
    def test_withdraw_and_release_keep_slack_aligned(self, seed):
        rng = random.Random(seed)
        horizon = 30
        cpu1 = cpu("l1")
        available = ResourceSet.of(term(5, cpu1, 0, horizon))
        controller = AdmissionController(available)
        admitted = []
        for requirement in _seeded_requirements(rng, cpu1, 20, horizon):
            if controller.admit(requirement).admitted:
                admitted.append(requirement.label)
            if admitted and rng.random() < 0.4:
                controller.withdraw(admitted.pop(rng.randrange(len(admitted))))
            assert controller.verify_slack()

    def test_join_after_revocation_keeps_slack_exact(self):
        cpu1 = cpu("l1")
        controller = AdmissionController(ResourceSet.of(term(2, cpu1, 0, 10)))
        assert controller.admit(
            ComplexRequirement([Demands({cpu1: 20})], Interval(0, 10), label="a")
        ).admitted
        controller.revoke_resources(ResourceSet.of(term(2, cpu1, 0, 10)))
        controller.add_resources(ResourceSet.of(term(2, cpu1, 0, 10)))
        # The joined capacity backs the still-committed schedule instead
        # of re-entering the slack.
        assert controller.verify_slack()
        assert controller.expiring_slack.quantity(cpu1, Interval(0, 10)) == 0

    @pytest.mark.parametrize("returned", ["withdraw", "release"])
    def test_claim_returned_after_revocation_keeps_slack_exact(self, returned):
        cpu1 = cpu("l1")
        capacity = ResourceSet.of(term(2, cpu1, 5, 10))
        controller = AdmissionController(capacity)
        if returned == "withdraw":
            assert controller.admit(
                ComplexRequirement(
                    [Demands({cpu1: 10})], Interval(5, 10), label="a"
                )
            ).admitted
        else:
            controller.reserve(capacity)
        controller.revoke_resources(capacity)
        if returned == "withdraw":
            controller.withdraw("a")
        else:
            controller.release(capacity)
        # The claim leaves, but the capacity it held is gone: nothing is
        # free.
        assert controller.verify_slack()
        assert controller.expiring_slack.quantity(cpu1, Interval(0, 10)) == 0


def _as_concurrent(requirement):
    from repro.computation.requirements import ConcurrentRequirement

    if isinstance(requirement, ConcurrentRequirement):
        return requirement
    return ConcurrentRequirement((requirement,), requirement.window)
