"""Unit tests for the three requirement levels rho(gamma/Gamma/Lambda)."""

from __future__ import annotations

import copy
import pickle

import pytest

from repro.computation import (
    Actor,
    ActorComputation,
    ComplexRequirement,
    ConcurrentRequirement,
    Demands,
    Evaluate,
    Send,
    SimpleRequirement,
)
from repro.computation import Placement
from repro.errors import InvalidComputationError
from repro.intervals import Interval
from repro.resources import ResourceSet, cpu, term


class TestSimpleRequirement:
    def test_construction(self, cpu1):
        req = SimpleRequirement(Demands({cpu1: 5}), Interval(0, 10))
        assert req.start == 0
        assert req.deadline == 10

    def test_empty_window_rejected(self, cpu1):
        with pytest.raises(InvalidComputationError):
            SimpleRequirement(Demands({cpu1: 5}), Interval(3, 3))

    def test_satisfied_by(self, cpu1):
        """The f function: U_s^d Theta >= Phi."""
        pool = ResourceSet.of(term(2, cpu1, 0, 10))
        assert SimpleRequirement(Demands({cpu1: 20}), Interval(0, 10)).satisfied_by(pool)
        assert not SimpleRequirement(Demands({cpu1: 21}), Interval(0, 10)).satisfied_by(pool)

    def test_quantity_outside_window_does_not_help(self, cpu1):
        """Paper: resources outside the usable interval don't satisfy."""
        pool = ResourceSet.of(term(100, cpu1, 10, 20))
        req = SimpleRequirement(Demands({cpu1: 1}), Interval(0, 10))
        assert not req.satisfied_by(pool)


class TestComplexRequirement:
    def test_phases_preserved_in_order(self, cpu1, net12):
        req = ComplexRequirement(
            [Demands({cpu1: 5}), Demands({net12: 2})], Interval(0, 10)
        )
        assert req.phase_count == 2
        assert req.phases[0] == Demands({cpu1: 5})

    def test_empty_phases_dropped(self, cpu1):
        req = ComplexRequirement(
            [Demands(), Demands({cpu1: 5}), Demands()], Interval(0, 10)
        )
        assert req.phase_count == 1

    def test_all_empty_rejected(self):
        with pytest.raises(InvalidComputationError):
            ComplexRequirement([Demands()], Interval(0, 10))

    def test_from_computation(self, l1, l2):
        actor = Actor("a", l1, (Evaluate("e"), Send("b")))
        placement = Placement({"a": l1, "b": l2})
        gamma = ActorComputation.derive(actor, placement)
        req = ComplexRequirement.from_computation(gamma, Interval(0, 20))
        assert req.label == "a"
        assert req.phase_count == 2

    def test_total_demands(self, cpu1, net12):
        req = ComplexRequirement(
            [Demands({cpu1: 5}), Demands({net12: 2}), Demands({cpu1: 1})],
            Interval(0, 10),
        )
        assert req.total_demands == Demands({cpu1: 6, net12: 2})

    def test_decompose_pins_phases(self, cpu1, net12):
        req = ComplexRequirement(
            [Demands({cpu1: 5}), Demands({net12: 2})], Interval(0, 10)
        )
        simple = req.decompose([4])
        assert simple[0].window == Interval(0, 4)
        assert simple[1].window == Interval(4, 10)

    def test_decompose_wrong_arity(self, cpu1):
        req = ComplexRequirement([Demands({cpu1: 5})], Interval(0, 10))
        with pytest.raises(InvalidComputationError):
            req.decompose([5])

    def test_decompose_rejects_unordered(self, cpu1, net12):
        req = ComplexRequirement(
            [Demands({cpu1: 5}), Demands({net12: 2}), Demands({cpu1: 5})],
            Interval(0, 10),
        )
        with pytest.raises(InvalidComputationError):
            req.decompose([7, 3])

    def test_decompose_rejects_empty_subinterval(self, cpu1, net12):
        req = ComplexRequirement(
            [Demands({cpu1: 5}), Demands({net12: 2})], Interval(0, 10)
        )
        with pytest.raises(InvalidComputationError):
            req.decompose([0])

    def test_simple_accessor(self, cpu1, net12):
        req = ComplexRequirement(
            [Demands({cpu1: 5}), Demands({net12: 2})], Interval(0, 10)
        )
        pinned = req.simple(1, Interval(4, 9))
        assert pinned.demands == Demands({net12: 2})

    def test_value_semantics(self, cpu1):
        a = ComplexRequirement([Demands({cpu1: 5})], Interval(0, 10), label="x")
        b = ComplexRequirement([Demands({cpu1: 5})], Interval(0, 10), label="x")
        assert a == b
        assert hash(a) == hash(b)


class TestConcurrentRequirement:
    def test_components(self, cpu1, cpu2):
        window = Interval(0, 10)
        parts = (
            ComplexRequirement([Demands({cpu1: 5})], window, label="a"),
            ComplexRequirement([Demands({cpu2: 5})], window, label="b"),
        )
        req = ConcurrentRequirement(parts, window)
        assert len(req) == 2
        assert req.total_demands == Demands({cpu1: 5, cpu2: 5})

    def test_needs_components(self):
        with pytest.raises(InvalidComputationError):
            ConcurrentRequirement((), Interval(0, 10))

    def test_component_window_must_fit(self, cpu1):
        part = ComplexRequirement([Demands({cpu1: 5})], Interval(0, 20))
        with pytest.raises(InvalidComputationError):
            ConcurrentRequirement((part,), Interval(0, 10))

    def test_component_may_be_narrower(self, cpu1):
        part = ComplexRequirement([Demands({cpu1: 5})], Interval(2, 8))
        req = ConcurrentRequirement((part,), Interval(0, 10))
        assert req.components[0].window == Interval(2, 8)


class TestAggregateCache:
    """``total_demands`` is summed once per immutable requirement and
    never rides a pickle: checkpoint bytes do not depend on whether it
    was read."""

    def _requirement(self, cpu1, cpu2, net12):
        window = Interval(0, 10)
        return ConcurrentRequirement(
            (
                ComplexRequirement(
                    [Demands({cpu1: 5}), Demands({net12: 2, cpu1: 1})],
                    window, label="a",
                ),
                ComplexRequirement([Demands({cpu2: 3})], window, label="b"),
            ),
            window,
        )

    def test_summed_once(self, cpu1, cpu2, net12):
        req = self._requirement(cpu1, cpu2, net12)
        total = req.total_demands
        assert total == Demands({cpu1: 6, net12: 2, cpu2: 3})
        assert req.total_demands is total
        part = req.components[0]
        assert part.total_demands is part.total_demands
        assert part.total_demands == Demands({cpu1: 6, net12: 2})

    @pytest.mark.parametrize("protocol", [2, pickle.HIGHEST_PROTOCOL])
    def test_never_pickled(self, cpu1, cpu2, net12, protocol):
        cold = pickle.dumps(self._requirement(cpu1, cpu2, net12), protocol)
        req = self._requirement(cpu1, cpu2, net12)
        req.total_demands
        assert pickle.dumps(req, protocol) == cold
        restored = pickle.loads(cold)
        assert restored == req
        assert restored.total_demands == req.total_demands
        assert copy.deepcopy(req) == req
