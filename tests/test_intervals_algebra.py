"""Unit tests for interval-algebra composition and constraint networks."""

from __future__ import annotations

import itertools

import pytest

from repro.errors import InvalidIntervalError
from repro.intervals import (
    ALL_RELATIONS,
    FULL,
    Interval,
    IntervalNetwork,
    Relation,
    compose,
    compose_sets,
    composition_table,
    converse,
    converse_set,
    relate,
)


class TestCompositionTable:
    def test_full_table_size(self):
        assert len(composition_table()) == 13 * 13

    def test_no_entry_empty(self):
        """Every pair of relations is composable (some witness exists)."""
        for entry in composition_table().values():
            assert entry

    def test_known_singletons(self):
        assert compose(Relation.BEFORE, Relation.BEFORE) == {Relation.BEFORE}
        assert compose(Relation.MEETS, Relation.MEETS) == {Relation.BEFORE}
        assert compose(Relation.DURING, Relation.DURING) == {Relation.DURING}
        assert compose(Relation.STARTS, Relation.STARTS) == {Relation.STARTS}
        assert compose(Relation.FINISHES, Relation.FINISHES) == {Relation.FINISHES}

    def test_equals_is_identity(self):
        for r in ALL_RELATIONS:
            assert compose(Relation.EQUALS, r) == {r}
            assert compose(r, Relation.EQUALS) == {r}

    def test_before_after_composes_to_everything(self):
        """b ; bi is the classic full-disjunction entry."""
        assert compose(Relation.BEFORE, Relation.AFTER) == FULL

    def test_converse_identity(self):
        """(r1 ; r2)^-1 == r2^-1 ; r1^-1 — a standard algebra law."""
        for r1, r2 in itertools.product(ALL_RELATIONS, repeat=2):
            lhs = converse_set(compose(r1, r2))
            rhs = compose(converse(r2), converse(r1))
            assert lhs == rhs, (r1, r2)

    def test_composition_sound_on_concrete_triples(self):
        grid = [Interval(a, b) for a in range(4) for b in range(a + 1, 5)]
        for i, j, k in itertools.product(grid, repeat=3):
            assert relate(i, k) in compose(relate(i, j), relate(j, k))

    def test_compose_sets_unions(self):
        out = compose_sets({Relation.BEFORE}, {Relation.BEFORE, Relation.MEETS})
        assert out == compose(Relation.BEFORE, Relation.BEFORE) | compose(
            Relation.BEFORE, Relation.MEETS
        )


class TestIntervalNetwork:
    def test_concrete_network_is_consistent(self):
        network = IntervalNetwork.from_concrete(
            {"a": Interval(0, 2), "b": Interval(1, 5), "c": Interval(6, 9)}
        )
        assert network.propagate()

    def test_concrete_network_rejects_empty_interval(self):
        with pytest.raises(InvalidIntervalError):
            IntervalNetwork.from_concrete({"a": Interval(1, 1)})

    def test_relation_defaults_to_full(self):
        network = IntervalNetwork()
        network.add_node("a")
        network.add_node("b")
        assert network.relation("a", "b") == FULL

    def test_self_relation_is_equals(self):
        network = IntervalNetwork()
        network.add_node("a")
        assert network.relation("a", "a") == {Relation.EQUALS}

    def test_constrain_tightens_and_mirrors(self):
        network = IntervalNetwork()
        network.constrain("a", "b", {Relation.BEFORE, Relation.MEETS})
        assert network.relation("a", "b") == {Relation.BEFORE, Relation.MEETS}
        assert network.relation("b", "a") == {Relation.AFTER, Relation.MET_BY}

    def test_propagation_infers_transitive_before(self):
        network = IntervalNetwork()
        network.constrain("a", "b", {Relation.BEFORE})
        network.constrain("b", "c", {Relation.BEFORE})
        assert network.propagate()
        assert network.relation("a", "c") == {Relation.BEFORE}

    def test_propagation_detects_cycle_inconsistency(self):
        network = IntervalNetwork()
        network.constrain("a", "b", {Relation.BEFORE})
        network.constrain("b", "c", {Relation.BEFORE})
        network.constrain("c", "a", {Relation.BEFORE})
        assert not network.propagate()

    def test_propagation_narrows_disjunctions(self):
        network = IntervalNetwork()
        network.constrain("a", "b", {Relation.MEETS})
        network.constrain("b", "c", {Relation.MEETS})
        network.propagate()
        assert network.relation("a", "c") == {Relation.BEFORE}

    def test_inconsistent_self_constraint(self):
        network = IntervalNetwork()
        network.constrain("a", "a", {Relation.BEFORE})
        assert network.relation("a", "a") == frozenset() or not network.propagate()

    def test_nodes_are_registered_once(self):
        network = IntervalNetwork()
        network.add_node("a")
        network.add_node("a")
        assert network.nodes == ("a",)

    def test_resource_window_ordering_use_case(self):
        """Ordering constraints of a 3-phase computation propagate."""
        network = IntervalNetwork()
        # phase windows must follow one another
        network.constrain("p1", "p2", {Relation.BEFORE, Relation.MEETS})
        network.constrain("p2", "p3", {Relation.BEFORE, Relation.MEETS})
        assert network.propagate()
        assert network.relation("p1", "p3") <= {Relation.BEFORE, Relation.MEETS}
