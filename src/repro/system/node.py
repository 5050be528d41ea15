"""Locations and topologies for simulated open systems.

A :class:`Topology` is a set of nodes and directed links with capacity
figures, from which uniform resource sets over a time window can be
minted.  It exists so workload generators and examples can talk about
"a 4-node cluster with full-mesh 10-unit links" in one line.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterator, Tuple

from repro.errors import WorkloadError, require_count
from repro.intervals.interval import Interval, Time
from repro.resources.located_type import LocatedType, Link, Node, cpu, network
from repro.resources.resource_set import ResourceSet
from repro.resources.term import ResourceTerm


@dataclass
class Topology:
    """Named nodes with CPU rates and directed links with bandwidths."""

    cpu_rates: Dict[Node, Time] = field(default_factory=dict)
    bandwidths: Dict[Link, Time] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def full_mesh(
        cls,
        node_count: int,
        *,
        cpu_rate: Time = 10,
        bandwidth: Time = 10,
        prefix: str = "l",
    ) -> "Topology":
        """``node_count`` nodes, every ordered pair linked."""
        require_count(WorkloadError, "topology node count", node_count)
        nodes = [Node(f"{prefix}{i + 1}") for i in range(node_count)]
        topo = cls({node: cpu_rate for node in nodes}, {})
        for a, b in itertools.permutations(nodes, 2):
            topo.bandwidths[Link(a, b)] = bandwidth
        return topo

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> tuple[Node, ...]:
        return tuple(self.cpu_rates)

    @property
    def links(self) -> tuple[Link, ...]:
        return tuple(self.bandwidths)

    def node(self, name: str) -> Node:
        for candidate in self.cpu_rates:
            if candidate.name == name:
                return candidate
        raise WorkloadError(f"no node named {name!r} in topology")

    def located_types(self) -> Iterator[Tuple[LocatedType, Time]]:
        """Every located type the topology provides, with its rate."""
        for node, rate in self.cpu_rates.items():
            yield cpu(node), rate
        for link, rate in self.bandwidths.items():
            yield LocatedType("network", link), rate

    # ------------------------------------------------------------------
    # Resource minting
    # ------------------------------------------------------------------
    def resources(self, window: Interval) -> ResourceSet:
        """All capacity as resource terms over one window."""
        return ResourceSet(
            ResourceTerm(rate, ltype, window)
            for ltype, rate in self.located_types()
            if rate > 0
        )

    def node_resources(self, name: str, window: Interval) -> ResourceSet:
        """One node's CPU (and its outgoing links) over a window —
        the unit of churn when a peer joins or leaves."""
        node = self.node(name)
        terms = [ResourceTerm(self.cpu_rates[node], cpu(node), window)]
        for link, rate in self.bandwidths.items():
            if link.source == node and rate > 0:
                terms.append(ResourceTerm(rate, LocatedType("network", link), window))
        return ResourceSet(terms)
