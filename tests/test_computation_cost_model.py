"""Unit tests for the cost function Phi (paper Section IV-A)."""

from __future__ import annotations

import pytest

from repro.computation import (
    Create,
    DEFAULT_COST_MODEL,
    Demands,
    Evaluate,
    Migrate,
    Placement,
    Ready,
    Send,
    StandardCostModel,
)
from repro.errors import InvalidComputationError
from repro.resources import Node, cpu, network


@pytest.fixture
def placement(l1, l2):
    return Placement({"a1": l1, "a2": l2})


class TestPlacement:
    def test_locate(self, placement, l1):
        assert placement.locate("a1") == l1

    def test_unknown_actor(self, placement):
        with pytest.raises(InvalidComputationError):
            placement.locate("ghost")

    def test_place_and_knows(self, placement, l1):
        with pytest.raises(InvalidComputationError):
            placement.locate("a3")
        placement.place("a3", l1)
        assert placement.locate("a3") == l1

    def test_copy_is_independent(self, placement, l2):
        clone = placement.copy()
        clone.place("a1", l2)
        assert placement.locate("a1") == Node("l1")


class TestStandardCostModel:
    """The paper's illustrative amounts: evaluate=8, create=5, ready=1,
    send=4 network, migrate=3+6+3."""

    def test_evaluate(self, placement, l1):
        d = DEFAULT_COST_MODEL.requirements(Evaluate("e"), l1, placement)
        assert d == Demands({cpu(l1): 8})

    def test_evaluate_scales_with_work(self, placement, l1):
        d = DEFAULT_COST_MODEL.requirements(Evaluate("e", work=2), l1, placement)
        assert d == Demands({cpu(l1): 16})

    def test_send_remote(self, placement, l1, l2):
        """Phi(a1, send(a2, m)) = {4}_<network, l(a1)->l(a2)>."""
        d = DEFAULT_COST_MODEL.requirements(Send("a2", "m"), l1, placement)
        assert d == Demands({network(l1, l2): 4})

    def test_send_local_uses_cpu(self, placement, l1):
        d = DEFAULT_COST_MODEL.requirements(Send("a1", "m"), l1, placement)
        assert list(d.located_types()) == [cpu(l1)]

    def test_create(self, placement, l1):
        assert DEFAULT_COST_MODEL.requirements(Create("b"), l1, placement) == Demands(
            {cpu(l1): 5}
        )

    def test_ready(self, placement, l1):
        assert DEFAULT_COST_MODEL.requirements(Ready(), l1, placement) == Demands(
            {cpu(l1): 1}
        )

    def test_migrate_needs_three_resources(self, placement, l1, l2):
        """Serialise at source, ship over the link, deserialise at target."""
        d = DEFAULT_COST_MODEL.requirements(Migrate(l2), l1, placement)
        assert d == Demands({cpu(l1): 3, network(l1, l2): 6, cpu(l2): 3})

    def test_migrate_to_self_degenerates(self, placement, l1):
        d = DEFAULT_COST_MODEL.requirements(Migrate(l1), l1, placement)
        assert d == Demands({cpu(l1): 1})

    def test_phi_alias(self, placement, l1):
        model = StandardCostModel()
        assert model.phi(l1, Evaluate("e"), placement) == model.requirements(
            Evaluate("e"), l1, placement
        )

    def test_custom_amounts(self, placement, l1):
        model = StandardCostModel(evaluate_cpu=2)
        assert model.requirements(Evaluate("e"), l1, placement)[cpu(l1)] == 2
