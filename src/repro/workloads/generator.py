"""Seeded synthetic workload generation.

The paper has no workload section; these generators produce the arrival
processes and requirement shapes its motivation describes — deadline-
constrained multi-phase computations arriving over time in an open system
— with explicit seeds so every experiment is reproducible.

Two families:

* :func:`random_requirement` / :func:`poisson_arrivals` — general
  arrival streams for the policy-comparison scenarios (integer quantities,
  controlled laxity).
* :func:`oracle_instance` — tiny *divisible* instances (every demand a
  multiple of the supplying rate, so phase finishes land on the integer
  grid) on which the brute-force oracle is exact; used by property tests
  to cross-validate the greedy decision procedure.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import List, Sequence

from repro.computation.demands import Demands
from repro.computation.requirements import ComplexRequirement, ConcurrentRequirement
from repro.errors import WorkloadError, require_count
from repro.intervals.interval import Interval, Time
from repro.resources.located_type import LocatedType
from repro.resources.resource_set import ResourceSet
from repro.resources.term import ResourceTerm

_label_counter = itertools.count(1)

#: Chance that a random phase demands two located types at once.
MULTI_TYPE_PHASE_PROB = 0.25
#: Shortest window of a random requirement.
MIN_DURATION = 4
#: Largest constant rate of an oracle instance's located types.
MAX_RATE = 3


def random_requirement(
    rng: random.Random,
    ltypes: Sequence[LocatedType],
    *,
    start: Time,
    max_phases: int = 4,
    max_quantity: int = 20,
    max_duration: int = 20,
) -> ComplexRequirement:
    """One sequential computation with random phases and window: a
    phase demands two located types with probability
    :data:`MULTI_TYPE_PHASE_PROB`, the window lasts at least
    :data:`MIN_DURATION`."""
    if not ltypes:
        raise WorkloadError("need at least one located type")
    require_count(WorkloadError, "max_phases", max_phases)
    require_count(WorkloadError, "max_quantity", max_quantity)
    phase_count = rng.randint(1, max_phases)
    phases: List[Demands] = []
    for _ in range(phase_count):
        if len(ltypes) > 1 and rng.random() < MULTI_TYPE_PHASE_PROB:
            chosen = rng.sample(list(ltypes), 2)
        else:
            chosen = [rng.choice(list(ltypes))]
        phases.append(
            Demands({lt: rng.randint(1, max_quantity) for lt in chosen})
        )
    duration = rng.randint(MIN_DURATION, max_duration)
    window = Interval(start, start + duration)
    return ComplexRequirement(
        phases, window, label=f"job{next(_label_counter)}"
    )


def poisson_arrivals(
    rng: random.Random,
    *,
    rate: float,
    horizon: int,
) -> List[int]:
    """Integer arrival instants of a Poisson process of intensity ``rate``
    per time unit over ``[0, horizon)``."""
    if rate <= 0:
        raise WorkloadError("arrival rate must be positive")
    times: List[int] = []
    t = 0.0
    while True:
        t += rng.expovariate(rate)
        if t >= horizon:
            return times
        times.append(int(t))


# ----------------------------------------------------------------------
# Oracle-friendly instances
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class OracleInstance:
    """A tiny divisible instance plus the availability it runs against."""

    available: ResourceSet
    requirement: ConcurrentRequirement


def oracle_instance(
    rng: random.Random,
    ltypes: Sequence[LocatedType],
    *,
    max_actors: int = 2,
    max_phases: int = 3,
    horizon: int = 8,
) -> OracleInstance:
    """Random divisible instance: every demand is ``rate x k`` for integer
    ``k``, rates are constant over ``(0, horizon)``, windows are integer.

    On such instances the quantised brute-force oracle decides exactly the
    same feasibility question as the exact procedures.
    """
    require_count(WorkloadError, "max_actors", max_actors)
    require_count(WorkloadError, "max_phases", max_phases)
    rates = {lt: rng.randint(1, MAX_RATE) for lt in ltypes}
    available = ResourceSet(
        ResourceTerm(rate, lt, Interval(0, horizon)) for lt, rate in rates.items()
    )
    components = []
    for index in range(rng.randint(1, max_actors)):
        phase_count = rng.randint(1, max_phases)
        phases = []
        for _ in range(phase_count):
            lt = rng.choice(list(ltypes))
            steps = rng.randint(1, max(1, horizon // (2 * phase_count)))
            phases.append(Demands({lt: rates[lt] * steps}))
        s = rng.randint(0, horizon // 2)
        d = rng.randint(s + 2, horizon)
        components.append(
            ComplexRequirement(phases, Interval(s, d), label=f"o{index}")
        )
    window = Interval(
        min(c.start for c in components), max(c.deadline for c in components)
    )
    return OracleInstance(available, ConcurrentRequirement(tuple(components), window))
