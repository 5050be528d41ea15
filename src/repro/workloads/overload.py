"""Overload workloads: flash crowds for the admission front door.

A *flash crowd* is the overload shape the front door exists for: a
steady, comfortably-admittable arrival stream that suddenly multiplies
(10x in the acceptance experiment) for a bounded burst, then subsides.
Without protection the admission queue grows without bound, every
arrival's slack drains while it waits, and goodput collapses; with the
front door, shedding keeps admitted promises intact and goodput
plateaus at the controller's capacity.

Generation is seeded and otherwise deterministic: burst arrivals are
evenly spaced on an exact rational grid (no float accumulation), so the
same ``(seed, multiplier)`` always produces the same stream — the
replay-identity assertions in :mod:`repro.faults.overload` depend on it.
"""

from __future__ import annotations

import random
from fractions import Fraction
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
from repro.service.frontdoor import ServiceRequest
from repro.system.events import Event, arrival
from repro.workloads.scenarios import Scenario

#: The stalled-enclave stream: when ``n0``'s checks stall.
STALL_WINDOW: Tuple[Time, Time] = (5, 45)
#: Its mid-run joins, to the stalled node and then to a healthy one.
STALL_JOINS_AT: Tuple[Time, ...] = (25, 40)
#: Each node's base CPU rate and each request's window length.
STALL_NODE_RATE: Time = 6
STALL_DEADLINE_SLACK: Time = 12


def _flash_crowd_times(
    *,
    multiplier: int,
    burst_at: Time,
    burst_duration: Time,
    horizon: Time,
) -> List[Time]:
    """Steady one-per-unit arrivals, multiplied inside the burst window.

    Burst arrivals sit on the exact grid ``t + j/multiplier`` so the
    stream is identical across runs and platforms.
    """
    times: List[Time] = []
    t = 1
    while t < horizon:
        in_burst = burst_at <= t < burst_at + burst_duration
        count = multiplier if in_burst else 1
        for j in range(count):
            times.append(t if j == 0 else t + Fraction(j, count))
        t += 1
    return times


def flash_crowd_requirements(
    seed: int = 0,
    *,
    multiplier: int = 10,
    nodes: int = 3,
    node_rate: Time = 6,
    burst_at: Time = 20,
    burst_duration: Time = 10,
    horizon: Time = 60,
    deadline_slack: Time = 8,
    max_quantity: int = 6,
) -> Tuple[ResourceSet, List[Tuple[Time, str, ConcurrentRequirement]]]:
    """The raw flash-crowd stream: resources plus timed requirements.

    Returns ``(resources, [(arrival_time, label, requirement), ...])``;
    the service driver and the simulator scenario both build on it.
    """
    require_count(WorkloadError, "multiplier", multiplier)
    require_count(WorkloadError, "nodes", nodes)
    require_count(WorkloadError, "max_quantity", max_quantity)
    rng = random.Random(seed)
    names = [f"n{i}" for i in range(nodes)]
    resources = ResourceSet(
        [
            ResourceTerm(node_rate, cpu(name), Interval(0, horizon))
            for name in names
        ]
    )
    stream: List[Tuple[Time, str, ConcurrentRequirement]] = []
    for index, at in enumerate(
        _flash_crowd_times(
            multiplier=multiplier,
            burst_at=burst_at,
            burst_duration=burst_duration,
            horizon=horizon,
        )
    ):
        node = names[rng.randrange(nodes)]
        amount = rng.randint(1, max_quantity)
        label = f"fc{index}"
        window = Interval(at, at + deadline_slack)
        component = ComplexRequirement(
            [Demands({cpu(node): amount})], window, label=label
        )
        stream.append(
            (at, label, ConcurrentRequirement((component,), window))
        )
    return resources, stream


def flash_crowd_requests(
    seed: int = 0, *, multiplier: int = 10, **kwargs
) -> Tuple[ResourceSet, List[ServiceRequest]]:
    """Flash crowd as :class:`ServiceRequest` s (the ``serve()`` path)."""
    resources, stream = flash_crowd_requirements(
        seed, multiplier=multiplier, **kwargs
    )
    return resources, [
        ServiceRequest(label, requirement, at)
        for at, label, requirement in stream
    ]


def flash_crowd_scenario(
    seed: int = 0,
    *,
    multiplier: int = 10,
    horizon: Time = 60,
    **kwargs,
) -> Scenario:
    """Flash crowd as a simulator :class:`Scenario` (the policy path)."""
    resources, stream = flash_crowd_requirements(
        seed, multiplier=multiplier, horizon=horizon, **kwargs
    )
    events: List[Event] = [
        arrival(at, requirement, label=label)
        for at, label, requirement in stream
    ]
    return Scenario(
        f"flash-crowd-x{multiplier}", resources, events, horizon
    )


def stalled_enclave_stream(
    seed: int = 0,
    *,
    nodes: int = 3,
    horizon: Time = 60,
) -> Tuple[
    ResourceSet,
    List[ServiceRequest],
    List[Tuple[Time, ResourceSet]],
    dict,
]:
    """A stalled-enclave fault plan's raw material.

    ``n0``'s checks stall inside :data:`STALL_WINDOW` (tripping its
    breaker); mid-run joins target the stalled node (so breaker-open
    join shedding is exercised) and a healthy one (so recovery is too).
    Returns ``(resources, requests, joins, stalls)``.
    """
    require_count(WorkloadError, "nodes", nodes)
    rng = random.Random(seed)
    names = [f"n{i}" for i in range(nodes)]
    sick = names[0]
    resources = ResourceSet(
        [
            ResourceTerm(STALL_NODE_RATE, cpu(name), Interval(0, horizon))
            for name in names
        ]
    )
    requests: List[ServiceRequest] = []
    index = 0
    t = 1
    while t < horizon - 2:
        node = names[rng.randrange(nodes)]
        label = f"se{index}"
        window = Interval(t, t + STALL_DEADLINE_SLACK)
        component = ComplexRequirement(
            [Demands({cpu(node): rng.randint(1, 4)})], window, label=label
        )
        requests.append(
            ServiceRequest(
                label, ConcurrentRequirement((component,), window), t
            )
        )
        index += 1
        t += 1
    healthy = names[1 % nodes]
    joins: List[Tuple[Time, ResourceSet]] = []
    for at, name in zip(STALL_JOINS_AT, (sick, healthy)):
        joins.append(
            (
                at,
                ResourceSet(
                    [ResourceTerm(2, cpu(name), Interval(at, horizon))]
                ),
            )
        )
    return resources, requests, joins, {sick: [STALL_WINDOW]}
