"""Unit tests for (Lambda, s, d) computations."""

from __future__ import annotations

import pytest

from repro.computation import (
    Actor,
    Computation,
    Demands,
    Evaluate,
    Ready,
    concurrent,
    sequential,
)
from repro.errors import InvalidComputationError
from repro.intervals import Interval
from repro.resources import cpu


@pytest.fixture
def worker(l1):
    return Actor("worker", l1, (Evaluate("e"),))


class TestConstruction:
    def test_triple(self, worker):
        comp = sequential(worker, 2, 9, name="job")
        assert comp.start == 2
        assert comp.deadline == 9
        assert comp.name == "job"
        assert comp.is_sequential

    def test_default_names_unique(self, worker, l1):
        a = sequential(worker, 0, 5)
        b = sequential(Actor("w2", l1, (Ready(),)), 0, 5)
        assert a.name != b.name

    def test_needs_actors(self):
        with pytest.raises(InvalidComputationError):
            Computation((), Interval(0, 5))

    def test_empty_window_rejected(self, worker):
        with pytest.raises(InvalidComputationError):
            sequential(worker, 5, 5)

    def test_duplicate_actor_names_rejected(self, l1):
        a = Actor("same", l1, (Ready(),))
        b = Actor("same", l1, (Ready(),))
        with pytest.raises(InvalidComputationError):
            concurrent([a, b], 0, 5)

    def test_empty_behaviour_rejected(self, l1):
        with pytest.raises(InvalidComputationError):
            sequential(Actor("idle", l1), 0, 5)

    def test_iteration(self, l1):
        actors = [Actor(f"a{i}", l1, (Ready(),)) for i in range(3)]
        comp = concurrent(actors, 0, 5)
        assert len(comp) == 3
        assert list(comp) == actors


class TestRequirementDerivation:
    def test_sequential_requirement(self, worker, l1):
        comp = sequential(worker, 0, 10)
        rho = comp.requirement()
        assert len(rho) == 1
        assert rho.total_demands == Demands({cpu(l1): 8})
        assert rho.window == Interval(0, 10)

    def test_concurrent_requirement(self, l1, l2):
        comp = concurrent(
            [Actor("a", l1, (Evaluate("e"),)), Actor("b", l2, (Evaluate("e"),))],
            0,
            10,
        )
        rho = comp.requirement()
        assert len(rho) == 2
        assert rho.total_demands == Demands({cpu(l1): 8, cpu(l2): 8})

    def test_default_placement_contains_all_actors(self, l1, l2):
        comp = concurrent(
            [Actor("a", l1, (Ready(),)), Actor("b", l2, (Ready(),))], 0, 10
        )
        placement = comp.default_placement()
        assert placement.locate("a") == l1
        assert placement.locate("b") == l2
