"""Unit tests for segmented (interacting-actor) computations."""

from __future__ import annotations

import pytest

from repro.computation import Demands, SegmentedRequirement, Wait, request_reply
from repro.decision import find_segmented_schedule, interaction_cost
from repro.decision.segmented import is_feasible
from repro.errors import InvalidComputationError
from repro.intervals import Interval
from repro.resources import ResourceSet, term


@pytest.fixture
def pool(cpu1):
    return ResourceSet.of(term(2, cpu1, 0, 30))


def two_segment(cpu1, *, max_delay, deadline=30):
    return request_reply(
        [Demands({cpu1: 10})],
        [Demands({cpu1: 10})],
        window=Interval(0, deadline),
        max_delay=max_delay,
        label="rpc",
    )


class TestConstruction:
    def test_wait_validation(self):
        with pytest.raises(InvalidComputationError):
            Wait(min_delay=-1)
        with pytest.raises(InvalidComputationError):
            Wait(min_delay=5, max_delay=2)

    def test_wait_count_must_match(self, cpu1):
        with pytest.raises(InvalidComputationError):
            SegmentedRequirement(
                [[Demands({cpu1: 1})], [Demands({cpu1: 1})]],
                [],  # one wait required
                Interval(0, 10),
            )

    def test_empty_segment_rejected(self, cpu1):
        with pytest.raises(InvalidComputationError):
            SegmentedRequirement([[Demands()]], [], Interval(0, 10))

    def test_total_demands(self, cpu1):
        seg = two_segment(cpu1, max_delay=5)
        assert seg.total_demands == Demands({cpu1: 20})

    def test_flattened_drops_waits(self, cpu1):
        seg = two_segment(cpu1, max_delay=5)
        flat = seg.flattened()
        # phase identity is preserved (merging is an ActorComputation
        # concern); only the waits disappear
        assert flat.phase_count == 2
        assert flat.total_demands == Demands({cpu1: 20})

    def test_value_semantics(self, cpu1):
        assert two_segment(cpu1, max_delay=5) == two_segment(cpu1, max_delay=5)
        assert two_segment(cpu1, max_delay=5) != two_segment(cpu1, max_delay=6)


class TestDecision:
    def test_worst_case_placement(self, pool, cpu1):
        """seg1: 10 units at 2/s -> (0,5); wait 5 -> seg2 starts at 10;
        seg2 -> (10,15)."""
        schedule = find_segmented_schedule(pool, two_segment(cpu1, max_delay=5))
        assert schedule is not None
        assert schedule.release_times() == (0, 10)
        assert schedule.finish_time == 15
        assert schedule.slack == 15

    def test_delay_eats_the_deadline(self, pool, cpu1):
        assert is_feasible(pool, two_segment(cpu1, max_delay=19))
        # 5 + 20 + 5 > 29? finish = 5+20+5 = 30 <= 30 OK; 21 -> 31 > 30
        assert not is_feasible(pool, two_segment(cpu1, max_delay=21))

    def test_zero_delay_matches_flattened(self, pool, cpu1):
        seg = two_segment(cpu1, max_delay=0)
        schedule = find_segmented_schedule(pool, seg)
        from repro.decision import earliest_finish_time

        assert schedule.finish_time == earliest_finish_time(pool, seg.flattened())

    def test_interaction_cost(self, pool, cpu1):
        assert interaction_cost(pool, two_segment(cpu1, max_delay=5)) == 5
        assert interaction_cost(pool, two_segment(cpu1, max_delay=0)) == 0

    def test_consumption_claims_are_disjoint_and_covered(self, pool, cpu1):
        schedule = find_segmented_schedule(pool, two_segment(cpu1, max_delay=5))
        assert pool.dominates(schedule.consumption())
        assert schedule.consumption().quantity(cpu1, Interval(0, 30)) == 20

    def test_delay_window_closed(self, pool, cpu1):
        """A wait that pushes the release past the deadline fails cleanly."""
        seg = SegmentedRequirement(
            [[Demands({cpu1: 2})], [Demands({cpu1: 2})]],
            [Wait(max_delay=40)],
            Interval(0, 30),
        )
        assert not is_feasible(pool, seg)

    def test_three_segments(self, pool, cpu1):
        seg = SegmentedRequirement(
            [[Demands({cpu1: 4})], [Demands({cpu1: 4})], [Demands({cpu1: 4})]],
            [Wait(max_delay=2), Wait(max_delay=3)],
            Interval(0, 30),
            label="chain",
        )
        schedule = find_segmented_schedule(pool, seg)
        # 2 + (2) + 2 + (3) + 2 = 11
        assert schedule.finish_time == 11

    def test_alignment_propagates(self, cpu1):
        pool = ResourceSet.of(term(3, cpu1, 0, 30))
        seg = two_segment(cpu1, max_delay=2)
        schedule = find_segmented_schedule(pool, seg, align=1)
        for sub in schedule.segments:
            assert float(sub.finish_time).is_integer()
