"""Unit tests for topologies."""

from __future__ import annotations

import pytest

from repro.errors import WorkloadError
from repro.intervals import Interval
from repro.resources import Node, cpu
from repro.system import Topology


class TestFullMesh:
    def test_counts(self):
        topo = Topology.full_mesh(4)
        assert len(topo.nodes) == 4
        assert len(topo.links) == 4 * 3  # ordered pairs

    def test_rates(self):
        topo = Topology.full_mesh(2, cpu_rate=7, bandwidth=3)
        types = dict(topo.located_types())
        assert types[cpu("l1")] == 7
        assert sum(1 for lt in types if lt.is_communication) == 2

    def test_needs_a_node(self):
        with pytest.raises(WorkloadError):
            Topology.full_mesh(0)


class TestResources:
    def test_mint_full_window(self):
        topo = Topology.full_mesh(2, cpu_rate=5, bandwidth=2)
        pool = topo.resources(Interval(0, 10))
        assert pool.quantity(cpu("l1"), Interval(0, 10)) == 50

    def test_node_lookup(self):
        topo = Topology.full_mesh(3)
        assert topo.node("l2") == Node("l2")
        with pytest.raises(WorkloadError):
            topo.node("ghost")

    def test_node_resources_for_churn(self):
        topo = Topology.full_mesh(3, cpu_rate=5, bandwidth=2)
        session = topo.node_resources("l1", Interval(3, 8))
        assert session.quantity(cpu("l1"), Interval(0, 10)) == 25
        # outgoing links only
        comm = [lt for lt in session.located_types if lt.is_communication]
        assert len(comm) == 2
        assert all(str(lt.location).startswith("l1 ->") for lt in comm)
