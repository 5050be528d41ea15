"""Detecting promise violations after a fault.

An admission promise says: the admitted computation's remaining demand
fits into the resources available within its window.  A fault can kill
that promise silently — the victim sits in ``rho`` consuming a trickle
until its deadline passes.  Detection makes the death explicit at the
instant of the fault, which is what allows *recovery* (re-admission
elsewhere) instead of a guaranteed miss.

The check here is the order-blind necessary condition
``U_now^d Theta >= remaining demand`` (the quantity comparison underlying
the paper's satisfaction function ``f``): if even the aggregate totals
cannot cover the residual demand, no execution order can.  Passing the
check does not guarantee survival — sequencing may still fail — so
detection errs on the side of leaving feasible-looking victims alone;
they either finish or are scored as honest misses.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.computation.demands import Demands
from repro.computation.requirements import (
    ComplexRequirement,
    ConcurrentRequirement,
)
from repro.errors import RecoveryError
from repro.intervals.interval import Interval, Time
from repro.logic.state import ActorProgress, SystemState


def components_of(
    state: SystemState, label: str
) -> Tuple[ActorProgress, ...]:
    """All of an arrival's actor components still in ``rho``: a state
    holds no component that can never act again."""
    return tuple(
        p
        for p in state
        if p.label == label or p.label.startswith(label + "[")
    )


def remaining_demands(components: Sequence[ActorProgress]) -> Demands:
    """Summed outstanding demand across components (order-blind)."""
    total: Dict = {}
    for progress in components:
        if progress.is_complete:
            continue
        outstanding = progress.current_demands
        for phase in progress.requirement.phases[progress.phase + 1:]:
            outstanding = outstanding + phase
        for ltype, quantity in outstanding.items():
            total[ltype] = total.get(ltype, 0) + quantity
    return Demands(total)


def residual_requirement(
    components: Sequence[ActorProgress], now: Time, label: str
) -> ConcurrentRequirement:
    """The victim's unfinished work, re-windowed to ``(now, deadline)``.

    Completed components drop out; each unfinished one contributes its
    partially-consumed current phase followed by its untouched phases, so
    a successful re-admission completes exactly the original demand.
    """
    parts: List[ComplexRequirement] = []
    deadline = None
    for progress in components:
        if progress.is_complete:
            continue
        deadline = progress.deadline if deadline is None else deadline
        phases = [progress.current_demands]
        phases.extend(progress.requirement.phases[progress.phase + 1:])
        parts.append(
            ComplexRequirement(
                phases, Interval(now, progress.deadline), label=label
            )
        )
    if not parts or deadline is None:
        raise RecoveryError(
            f"{label!r} has no unfinished components to recover"
        )
    window = Interval(now, max(p.deadline for p in parts))
    return ConcurrentRequirement(tuple(parts), window)


def find_victims(
    state: SystemState,
    labels: Sequence[str],
) -> List[Tuple[str, Time]]:
    """Labels whose remaining feasible window died, with residual totals.

    ``labels`` are the candidate arrivals (admitted, unfinished, not
    already in recovery).  Returns ``(label, remaining_total)`` pairs for
    every candidate whose outstanding demand exceeds what the surviving
    ``theta`` can supply before the deadline.
    """
    victims: List[Tuple[str, Time]] = []
    for label in labels:
        components = components_of(state, label)
        unfinished = [p for p in components if not p.is_complete]
        if not unfinished:
            continue
        deadline = min(p.deadline for p in unfinished)
        if state.t >= deadline:
            continue  # already a plain miss; nothing left to recover
        remaining = remaining_demands(unfinished)
        if remaining.is_empty:
            continue
        window = Interval(state.t, deadline)
        if not state.theta.can_supply(remaining, window):
            victims.append((label, remaining.total))
    return victims
