"""Unit tests for actors and derived requirement sequences."""

from __future__ import annotations

import pytest

from repro.computation import (
    Actor,
    ActorComputation,
    Create,
    Demands,
    Evaluate,
    Migrate,
    Placement,
    Ready,
    Send,
    derive_requirements,
)
from repro.errors import InvalidComputationError
from repro.resources import Node, cpu, network


@pytest.fixture
def travelling_actor(l1, l2):
    """evaluate; create; send; migrate; ready — the paper's action mix."""
    return Actor(
        "a1", l1, (Evaluate("e"), Create("b"), Send("a2"), Migrate(l2), Ready())
    )


@pytest.fixture
def placement(l1, l2):
    return Placement({"a1": l1, "a2": l2})


class TestActor:
    def test_construction(self, l1):
        actor = Actor("a1", l1, (Ready(),))
        assert actor.name == "a1"
        assert actor.home == l1

    def test_name_required(self, l1):
        with pytest.raises(InvalidComputationError):
            Actor("", l1)

    def test_home_must_be_node(self):
        with pytest.raises(InvalidComputationError):
            Actor("a1", "l1")

    def test_final_location_tracks_migrations(self, travelling_actor, l2):
        assert travelling_actor.final_location == l2

    def test_final_location_without_migration(self, l1):
        assert Actor("a1", l1, (Ready(),)).final_location == l1


class TestDeriveRequirements:
    def test_location_tracking_across_migrate(self, travelling_actor, placement, l1, l2):
        reqs = derive_requirements(travelling_actor, placement)
        assert [r.location for r in reqs] == [l1, l1, l1, l1, l2]
        # the post-migrate ready consumes CPU at l2, not l1
        assert reqs[-1].demands == Demands({cpu(l2): 1})

    def test_counts_match_behaviour(self, travelling_actor, placement):
        assert len(derive_requirements(travelling_actor, placement)) == 5

    def test_default_placement_self_only(self, l1):
        actor = Actor("solo", l1, (Evaluate("e"),))
        reqs = derive_requirements(actor)
        assert reqs[0].demands == Demands({cpu(l1): 8})


class TestPhaseGrouping:
    """Paper IV-B.2: consecutive same-single-type actions form one phase."""

    def test_cpu_actions_merge(self, l1):
        actor = Actor("a", l1, (Evaluate("e"), Create("b"), Ready()))
        gamma = ActorComputation.derive(actor)
        assert gamma.phase_count == 1
        assert gamma.phases[0].demands == Demands({cpu(l1): 8 + 5 + 1})

    def test_type_switch_splits(self, l1, l2):
        actor = Actor("a", l1, (Evaluate("e"), Send("b"), Evaluate("e")))
        placement = Placement({"a": l1, "b": l2})
        gamma = ActorComputation.derive(actor, placement)
        assert gamma.phase_count == 3

    def test_multi_type_action_is_own_phase(self, travelling_actor, placement):
        gamma = ActorComputation.derive(travelling_actor, placement)
        # [cpu 13][net 4][migrate: cpu+net+cpu][cpu@l2 1]
        assert gamma.phase_count == 4
        assert len(gamma.phases[2].demands) == 3

    def test_total_demands(self, travelling_actor, placement, l1, l2):
        gamma = ActorComputation.derive(travelling_actor, placement)
        totals = gamma.total_demands
        assert totals[cpu(l1)] == 8 + 5 + 3
        assert totals[network(l1, l2)] == 4 + 6
        assert totals[cpu(l2)] == 3 + 1

    def test_iteration_and_len(self, travelling_actor, placement):
        gamma = ActorComputation.derive(travelling_actor, placement)
        assert len(list(gamma)) == len(gamma) == gamma.phase_count
