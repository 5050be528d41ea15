"""Unit tests for the complete IA consistency solver."""

from __future__ import annotations

import itertools
import random

import pytest

from repro.intervals import (
    ALL_RELATIONS,
    Interval,
    IntervalNetwork,
    Relation,
    realise,
    relate,
    solve,
    solve_and_realise,
)


def network_of(*constraints):
    network = IntervalNetwork()
    for a, b, relations in constraints:
        network.constrain(a, b, relations)
    return network


class TestSolve:
    def test_trivial_network(self):
        network = network_of(("a", "b", {Relation.BEFORE}))
        labelling = solve(network)
        assert labelling == {("a", "b"): Relation.BEFORE}

    def test_inconsistent_cycle(self):
        network = network_of(
            ("a", "b", {Relation.BEFORE}),
            ("b", "c", {Relation.BEFORE}),
            ("c", "a", {Relation.BEFORE}),
        )
        assert solve(network) is None
        assert solve(network) is None

    def test_disjunction_resolved(self):
        network = network_of(
            ("a", "b", {Relation.BEFORE, Relation.AFTER}),
            ("b", "c", {Relation.BEFORE}),
            ("a", "c", {Relation.AFTER}),
        )
        labelling = solve(network)
        # a after c and b before c forces a after b
        assert labelling is not None
        assert labelling[("a", "b")] == Relation.AFTER

    def test_input_not_mutated(self):
        network = network_of(("a", "b", {Relation.BEFORE, Relation.MEETS}))
        solve(network)
        assert len(network.relation("a", "b")) == 2

    def test_unconstrained_network_solvable(self):
        network = IntervalNetwork()
        for node in "abcd":
            network.add_node(node)
        assert solve(network) is not None


class TestRealise:
    def test_witness_matches_labelling(self):
        labelling = {
            ("a", "b"): Relation.OVERLAPS,
            ("b", "c"): Relation.DURING,
            ("a", "c"): Relation.DURING,
        }
        if solve(_as_network(labelling)) is None:
            pytest.skip("labelling itself inconsistent")
        witness = realise(labelling)
        for (a, b), relation in labelling.items():
            assert relate(witness[a], witness[b]) is relation

    @pytest.mark.parametrize("relation", ALL_RELATIONS)
    def test_single_pair_every_relation(self, relation):
        witness = realise({("a", "b"): relation})
        assert relate(witness["a"], witness["b"]) is relation

    def test_empty_labelling(self):
        assert realise({}) == {}


def _as_network(labelling):
    network = IntervalNetwork()
    for (a, b), relation in labelling.items():
        network.constrain(a, b, {relation})
    return network


class TestSolveAndRealise:
    def test_end_to_end(self):
        network = network_of(
            ("setup", "transfer", {Relation.BEFORE, Relation.MEETS}),
            ("transfer", "compute", {Relation.BEFORE, Relation.MEETS}),
            ("compute", "window", {Relation.DURING, Relation.FINISHES}),
            ("setup", "window", {Relation.DURING, Relation.STARTS}),
        )
        witness = solve_and_realise(network)
        assert witness is not None
        assert witness["setup"].end <= witness["transfer"].start
        assert witness["transfer"].end <= witness["compute"].start

    def test_none_for_inconsistent(self):
        network = network_of(
            ("a", "b", {Relation.DURING}),
            ("b", "a", {Relation.DURING}),
        )
        assert solve_and_realise(network) is None

    def test_agrees_with_concrete_ground_truth(self, rng):
        """Networks built from concrete intervals are always solvable and
        the solver must find the (unique) labelling."""
        for _ in range(20):
            concrete = {
                name: _random_interval(rng) for name in ("a", "b", "c", "d")
            }
            network = IntervalNetwork.from_concrete(concrete)
            labelling = solve(network)
            assert labelling is not None
            for (a, b), relation in labelling.items():
                assert relate(concrete[a], concrete[b]) is relation

    def test_random_disjunctive_networks_sound(self, rng):
        """Whenever the solver claims consistency, the realised witness
        satisfies every original constraint (soundness); whenever it says
        no, brute-force search over a small grid agrees (completeness on
        small instances)."""
        # 3 intervals have 6 endpoints; 7 grid values realise every order
        # type, so brute force over this grid is complete.
        grid = [Interval(a, b) for a in range(6) for b in range(a + 1, 7)]
        for _ in range(15):
            constraints = []
            nodes = ["a", "b", "c"]
            for x, y in itertools.combinations(nodes, 2):
                allowed = frozenset(
                    rng.sample(list(ALL_RELATIONS), rng.randint(1, 4))
                )
                constraints.append((x, y, allowed))
            network = network_of(*constraints)
            witness = solve_and_realise(network)
            brute = _brute_force(grid, nodes, constraints)
            if witness is not None:
                for x, y, allowed in constraints:
                    assert relate(witness[x], witness[y]) in allowed
                assert brute, "solver said yes, brute force says no"
            else:
                assert not brute, "solver said no, brute force found a witness"


def _random_interval(rng) -> Interval:
    start = rng.randint(0, 6)
    return Interval(start, start + rng.randint(1, 5))


def _brute_force(grid, nodes, constraints) -> bool:
    for assignment in itertools.product(grid, repeat=len(nodes)):
        bound = dict(zip(nodes, assignment))
        if all(
            relate(bound[x], bound[y]) in allowed for x, y, allowed in constraints
        ):
            return True
    return False
