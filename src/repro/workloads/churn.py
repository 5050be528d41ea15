"""Resource churn: peers joining and leaving an open system.

The paper's motivating environment is one where "resources can
dynamically join or leave the system at any time".  ROTA models this with
the resource-acquisition rule plus term intervals that *pre-declare* the
leave time: "if a resource is going to leave the system in the future,
the time of leaving must be explicitly specified at the time of joining".

:func:`churn_events` renders that faithfully: each simulated peer session
is one :class:`ResourceJoinEvent` whose terms span exactly the session's
(join, leave) interval.
"""

from __future__ import annotations

import random
from typing import List

from repro.errors import WorkloadError
from repro.intervals.interval import Interval
from repro.resources.resource_set import ResourceSet
from repro.system.events import ResourceJoinEvent, resource_join
from repro.system.node import Topology


def churn_events(
    rng: random.Random,
    topology: Topology,
    *,
    horizon: int,
    session_rate: float = 0.2,
    min_session: int = 5,
    max_session: int = 30,
) -> List[ResourceJoinEvent]:
    """Peer sessions over ``[0, horizon)``.

    Sessions arrive Poisson(``session_rate``) per time unit; each picks a
    random node of the topology and contributes that node's resources
    (CPU + outgoing links) for a uniform session length, pre-declared in
    the term intervals.
    """
    if horizon <= 0:
        raise WorkloadError(f"horizon must be positive, got {horizon!r}")
    if session_rate <= 0:
        raise WorkloadError(
            f"session_rate must be positive, got {session_rate!r}"
        )
    if min_session < 1 or max_session < min_session:
        raise WorkloadError("invalid session length bounds")
    node_names = [node.name for node in topology.nodes]
    if not node_names:
        raise WorkloadError("topology has no nodes to churn")
    events: List[ResourceJoinEvent] = []
    t = 0.0
    while True:
        t += rng.expovariate(session_rate)
        join_at = int(t)
        if join_at >= horizon:
            return events
        length = rng.randint(min_session, max_session)
        leave_at = min(horizon, join_at + length)
        if leave_at <= join_at:
            continue
        name = rng.choice(node_names)
        resources = topology.node_resources(name, Interval(join_at, leave_at))
        events.append(resource_join(join_at, resources))


#: How early (time units) a revocation may land before the declared end.
MIN_EARLY = 2
MAX_EARLY = 10


def broken_promises(
    rng: random.Random,
    sessions: List[ResourceJoinEvent],
    *,
    violation_rate: float,
    min_early: int = MIN_EARLY,
    max_early: int = MAX_EARLY,
) -> List["ResourceRevocationEvent"]:
    """Revocation events violating a fraction of the sessions' declared
    leave times.

    For each selected session, its resources vanish ``early`` time units
    before the declared end: a :class:`ResourceRevocationEvent` covering
    the session's final stretch.  ``violation_rate`` in [0, 1] is the
    per-session violation probability.
    """
    from repro.system.events import ResourceRevocationEvent

    if not 0 <= violation_rate <= 1:
        raise WorkloadError("violation_rate must be in [0, 1]")
    out: List[ResourceRevocationEvent] = []
    for session in sessions:
        if rng.random() >= violation_rate:
            continue
        terms = session.resources.terms()
        if not terms:
            continue
        declared_end = max(t.window.end for t in terms)
        early = rng.randint(min_early, max_early)
        cutoff = declared_end - early
        if cutoff <= session.time:
            continue
        vanished = session.resources.restrict(Interval(cutoff, declared_end))
        if vanished.is_empty:
            continue
        out.append(ResourceRevocationEvent(time=cutoff, resources=vanished))
    return out


def stable_base(
    topology: Topology, horizon: int, *, fraction: float = 0.5
) -> ResourceSet:
    """A stable backbone: the topology's capacity scaled by ``fraction``
    over the whole horizon (the part of the system that never churns)."""
    if not 0 < fraction <= 1:
        raise WorkloadError("fraction must be in (0, 1]")
    full = topology.resources(Interval(0, horizon))
    from fractions import Fraction

    from repro.resources.resource_set import ResourceSet as RS

    # Scale with an exact rational: float rates would leak rounding dust
    # into every downstream witness schedule and progress account.
    exact = Fraction(fraction).limit_denominator(10_000)
    return RS.from_profiles(
        {lt: profile.scale(exact) for lt, profile in full.profiles().items()}
    )
