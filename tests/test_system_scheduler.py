"""Unit tests for allocation policies."""

from __future__ import annotations

import pytest

from repro.computation import ComplexRequirement, Demands
from repro.decision import find_schedule
from repro.decision.schedule import ConcurrentSchedule
from repro.intervals import Interval
from repro.logic import accommodate, greedy_allocations, initial_state
from repro.resources import ResourceSet, term
from repro.system import EdfPolicy, ReservationPolicy


def creq(phases, s, d, label):
    return ComplexRequirement(phases, Interval(s, d), label=label)


@pytest.fixture
def contended_state(cpu1):
    """Capacity 2/slice; two jobs wanting it all, different deadlines."""
    pool = ResourceSet.of(term(2, cpu1, 0, 10))
    state = initial_state(pool, 0)
    state = accommodate(state, creq([Demands({cpu1: 10})], 0, 10, "loose"))
    state = accommodate(state, creq([Demands({cpu1: 4})], 0, 4, "tight"))
    return state


class TestPriorityPolicies:
    def test_fcfs_order(self, contended_state, cpu1):
        allocations = greedy_allocations(contended_state, 1)
        assert allocations["loose"] == Demands({cpu1: 2})
        assert "tight" not in allocations

    def test_edf_order(self, contended_state, cpu1):
        allocations = EdfPolicy().allocate(contended_state, 1)
        assert allocations["tight"] == Demands({cpu1: 2})
        assert "loose" not in allocations

    def test_work_conserving_split(self, cpu1):
        pool = ResourceSet.of(term(3, cpu1, 0, 10))
        state = initial_state(pool, 0)
        state = accommodate(state, creq([Demands({cpu1: 2})], 0, 4, "a"))
        state = accommodate(state, creq([Demands({cpu1: 10})], 0, 10, "b"))
        allocations = EdfPolicy().allocate(state, 1)
        assert allocations["a"] == Demands({cpu1: 2})
        assert allocations["b"] == Demands({cpu1: 1})

    def test_inactive_computation_gets_nothing(self, cpu1):
        pool = ResourceSet.of(term(2, cpu1, 0, 10))
        state = accommodate(
            initial_state(pool, 0), creq([Demands({cpu1: 4})], 5, 10, "later")
        )
        assert EdfPolicy().allocate(state, 1) == {}


class TestReservationPolicy:
    def test_follows_witness(self, cpu1):
        pool = ResourceSet.of(term(2, cpu1, 0, 10))
        req = creq([Demands({cpu1: 6})], 0, 10, "a")
        schedule = find_schedule(pool, req, align=1)
        policy = ReservationPolicy()
        policy.reserve("a", ConcurrentSchedule((schedule,)))
        state = accommodate(initial_state(pool, 0), req)
        allocations = policy.allocate(state, 1)
        assert allocations["a"] == Demands({cpu1: 2})

    def test_unreserved_gets_leftovers(self, cpu1):
        pool = ResourceSet.of(term(3, cpu1, 0, 10))
        reserved_req = creq([Demands({cpu1: 4})], 0, 10, "vip")
        # witness claims only 2/slice even though 3 are available
        reserved_schedule = find_schedule(
            ResourceSet.of(term(2, cpu1, 0, 10)), reserved_req, align=1
        )
        policy = ReservationPolicy()
        policy.reserve("vip", ConcurrentSchedule((reserved_schedule,)))
        state = initial_state(pool, 0)
        state = accommodate(state, reserved_req)
        state = accommodate(state, creq([Demands({cpu1: 9})], 0, 10, "walkin"))
        allocations = policy.allocate(state, 1)
        # the witness claim (2) is honoured first; the leftover unit flows
        # work-conservingly (here back to vip, which still has demand)
        assert allocations["vip"].get(cpu1, 0) >= 2
        total = sum(d.get(cpu1, 0) for d in allocations.values())
        assert total == 3

    def test_release(self, cpu1):
        pool = ResourceSet.of(term(2, cpu1, 0, 10))
        req = creq([Demands({cpu1: 6})], 0, 10, "a")
        schedule = find_schedule(pool, req, align=1)
        policy = ReservationPolicy()
        policy.reserve("a", ConcurrentSchedule((schedule,)))
        policy.release("a")
        policy.release("a")  # idempotent
        state = accommodate(initial_state(pool, 0), req)
        # falls back to EDF: still work-conserving
        assert policy.allocate(state, 1)["a"] == Demands({cpu1: 2})
