"""Partitioned-mesh workloads: raw material for the unreliable-network
fault experiments (:mod:`repro.faults.netfaults`).

The shape: a door node fronting a small mesh of child enclaves, a steady
seeded arrival stream whose requests target specific nodes, and mid-run
capacity joins destined for the children — each join must cross the
network as a wire message and arrives as a *lease-backed* grant, so the
partition experiments have something to sever, delay, lose, and expire.

Generation follows the same discipline as :mod:`repro.workloads.overload`:
seeded ``random.Random`` for the request mix, exact scalars everywhere,
no dependence on iteration order of anything unordered — the replay
identity assertions in ``chaos_partition_matrix`` depend on it.
"""

from __future__ import annotations

import random
from typing import List, Tuple

from repro.computation.demands import Demands
from repro.computation.requirements import (
    ComplexRequirement,
    ConcurrentRequirement,
)
from repro.errors import WorkloadError, require_count
from repro.intervals.interval import Interval, Time
from repro.resources.located_type import cpu
from repro.resources.resource_set import ResourceSet
from repro.resources.term import ResourceTerm

#: Each node's base CPU rate, owned outright from t=0.
NODE_RATE: Time = 6
#: The CPU rate of each lease-backed join.
LEASE_RATE: Time = 2
#: When the lease-backed joins arrive, one per child round-robin.
LEASE_JOINS_AT: Tuple[Time, ...] = (6, 10)
#: Largest CPU quantity one request demands.
MAX_QUANTITY = 3


def mesh_names(children: int) -> Tuple[str, ...]:
    """Node names of a mesh: the door ``n0`` plus ``children`` children."""
    require_count(WorkloadError, "mesh children", children)
    return tuple(f"n{i}" for i in range(children + 1))


def partitioned_mesh_stream(
    seed: int = 0,
    *,
    children: int = 2,
    horizon: Time = 48,
    deadline_slack: Time = 12,
) -> Tuple[
    ResourceSet,
    List[Tuple[Time, str, ConcurrentRequirement]],
    List[Tuple[Time, ResourceSet]],
]:
    """The partitioned-mesh raw material.

    Returns ``(resources, stream, joins)``:

    * ``resources`` — each node's base allotment, owned outright from
      t=0 (carved into per-child enclaves by the mesh policy);
    * ``stream`` — ``(arrival_time, label, requirement)`` triples, one
      request per tick, each demanding CPU at one seeded-random node, so
      a fixed fraction of decisions needs a cross-enclave round trip;
    * ``joins`` — ``(time, resources)`` pairs targeting child nodes
      round-robin; these are the lease-backed grants that travel over
      the wire and expire when renewals cannot get through.
    """
    rng = random.Random(seed)
    names = mesh_names(children)
    resources = ResourceSet(
        [
            ResourceTerm(NODE_RATE, cpu(name), Interval(0, horizon))
            for name in names
        ]
    )
    stream: List[Tuple[Time, str, ConcurrentRequirement]] = []
    index = 0
    t = 1
    while t < horizon - 2:
        node = names[rng.randrange(len(names))]
        amount = rng.randint(1, MAX_QUANTITY)
        label = f"pm{index}"
        window = Interval(t, t + deadline_slack)
        component = ComplexRequirement(
            [Demands({cpu(node): amount})], window, label=label
        )
        stream.append(
            (t, label, ConcurrentRequirement((component,), window))
        )
        index += 1
        t += 1
    joins: List[Tuple[Time, ResourceSet]] = []
    for i, at in enumerate(LEASE_JOINS_AT):
        child = names[1 + i % children]
        joins.append(
            (
                at,
                ResourceSet(
                    [ResourceTerm(LEASE_RATE, cpu(child), Interval(at, horizon))]
                ),
            )
        )
    return resources, stream, joins
