"""The labeled transition rules of ROTA (paper Section V-A).

Progress of a ROTA system is regulated by labeled transition rules:

* **sequential transition** — one actor consumes one resource type for a
  slice ``dt``;
* **concurrent transition** — several actors consume several types in the
  same slice;
* **resource expiration** — available resources whose time passes unused
  disappear, no computation progresses;
* **general transition** — the realistic mix: some resources consumed,
  the rest of the slice's availability expires;
* **resource acquisition** (instantaneous) — ``Theta := Theta U Theta_join``;
* **computation accommodation** (instantaneous, ``t < d``);
* **computation leave** (instantaneous, ``t < s``).

:func:`step` implements the general rule (with the sequential, concurrent
and pure-expiration rules as special cases of its allocation argument);
:func:`successors` enumerates every distinct allocation choice — the
branching of the tree frame ``chi`` whose branches are computation paths.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, Iterator, Mapping, Sequence, Tuple

from repro.computation.demands import Demands
from repro.computation.requirements import ComplexRequirement, ConcurrentRequirement
from repro.errors import TransitionError
from repro.intervals.interval import Interval, Time
from repro.logic.state import ActorProgress, SystemState
from repro.resources.located_type import LocatedType
from repro.resources.resource_set import ResourceSet


@dataclass(frozen=True)
class TransitionLabel:
    """``xi -> a`` annotations over one slice: who consumed what, and which
    types' availability expired unused."""

    consumed: tuple[Tuple[str, LocatedType, Time], ...]  # (actor, type, qty)
    expired: tuple[Tuple[LocatedType, Time], ...]  # (type, qty unused)
    dt: Time

    @property
    def is_pure_expiration(self) -> bool:
        return not self.consumed

    def __str__(self) -> str:
        parts = [f"{lt}->{actor}({q})" for actor, lt, q in self.consumed]
        if not parts:
            parts = ["expire"]
        return ", ".join(parts)


@dataclass(frozen=True)
class Transition:
    """One edge ``S_i --label--> S_{i+1}`` of the tree frame."""

    source: SystemState
    label: TransitionLabel
    target: SystemState


# ----------------------------------------------------------------------
# Timed rules
# ----------------------------------------------------------------------

def step(
    state: SystemState,
    dt: Time,
    allocations: Mapping[str, Demands] | None = None,
) -> Transition:
    """The general transition rule over ``(t, t + dt)``.

    ``allocations`` maps accommodated-computation labels to the demands
    they consume this slice.  Validation enforces the model:

    * an actor only consumes what its *current phase* (possible action)
      needs — sequencing is never violated;
    * an actor only consumes within its ``(s, d)`` window;
    * total consumption per type never exceeds the slice's availability.

    Whatever availability is not consumed expires (the slice lies in the
    past afterwards).  With no allocations this is the resource-expiration
    rule; with exactly one (actor, type) pair it is the paper's sequential
    rule; with several, the concurrent rule.
    """
    if dt <= 0:
        raise TransitionError(f"dt must be positive, got {dt!r}")
    allocations = dict(allocations or {})
    slice_window = Interval(state.t, state.t + dt)

    # Validate per-actor constraints and build consumption totals.
    consumed_per_type: Dict[LocatedType, Time] = {}
    consumed_labels: list[Tuple[str, LocatedType, Time]] = []
    updated: list[ActorProgress] = []
    for progress in state.rho:
        demand = allocations.pop(progress.label, None)
        if demand is None or demand.is_empty:
            updated.append(progress)
            continue
        if not progress.active_at(state.t):
            raise TransitionError(
                f"{progress.label!r} cannot consume at t={state.t}: outside "
                f"its window {Interval(progress.start, progress.deadline)} "
                "or already complete"
            )
        updated.append(progress.after_consuming(demand))
        for ltype, quantity in demand.items():
            consumed_per_type[ltype] = consumed_per_type.get(ltype, 0) + quantity
            consumed_labels.append((progress.label, ltype, quantity))
    if allocations:
        raise TransitionError(
            f"allocations reference unknown computations: {sorted(allocations)}"
        )

    # Validate against the slice's availability and compute expiry.
    capacities = state.theta.capacities(slice_window)
    expired: list[Tuple[LocatedType, Time]] = []
    for ltype, capacity in capacities.items():
        used = consumed_per_type.get(ltype, 0)
        if used > capacity:
            raise TransitionError(
                f"slice consumes {used} of {ltype} but only {capacity} is "
                f"available during {slice_window}"
            )
        leftover = capacity - used
        if leftover > 0:
            expired.append((ltype, leftover))
    for ltype, used in consumed_per_type.items():
        if ltype not in capacities and used > 0:
            raise TransitionError(f"no {ltype} available at all")

    next_state = SystemState(
        theta=state.theta.truncate_before(state.t + dt),
        rho=tuple(updated),
        t=state.t + dt,
    )
    label = TransitionLabel(tuple(consumed_labels), tuple(expired), dt)
    return Transition(state, label, next_state)


def expire(state: SystemState, dt: Time) -> Transition:
    """The resource-expiration rule: time passes, nothing is consumed."""
    return step(state, dt, None)


def greedy_allocations(
    state: SystemState,
    dt: Time,
    key: Callable[[ActorProgress], Any] | None = None,
) -> Mapping[str, Demands]:
    """A maximal allocation for the slice: active computations drain
    availability in turn, in admission order or sorted by ``key``.  The
    admission-order branch is the canonical one of deterministic
    stepping; the simulator's priority policies pass their own order."""
    capacity = dict(state.theta.capacities(Interval(state.t, state.t + dt)))
    active = [p for p in state.rho if p.active_at(state.t)]
    if key is not None:
        active.sort(key=key)
    out: Dict[str, Demands] = {}
    for progress in active:
        granted: Dict[LocatedType, Time] = {}
        for ltype, want in progress.current_demands.items():
            take = min(want, capacity.get(ltype, 0))
            if take > 0:
                granted[ltype] = take
                capacity[ltype] = capacity[ltype] - take
        if granted:
            out[progress.label] = Demands(granted)
    return out


# ----------------------------------------------------------------------
# Instantaneous rules
# ----------------------------------------------------------------------

def acquire(state: SystemState, joining: ResourceSet) -> SystemState:
    """Resource acquisition: ``(Theta, rho, t) -> (Theta U Theta_join, rho, t)``.

    There is no resource-leave rule: a term's interval already fixes when
    it leaves.
    """
    return replace(state, theta=state.theta | joining)


def accommodate(
    state: SystemState,
    requirement: ComplexRequirement | ConcurrentRequirement,
) -> SystemState:
    """Computation accommodation: add ``rho(Lambda, s, d)`` to the state.

    Precondition ``t < d`` — a computation whose deadline has passed
    cannot be accommodated.
    """
    parts: tuple[ComplexRequirement, ...]
    if isinstance(requirement, ConcurrentRequirement):
        parts = requirement.components
    else:
        parts = (requirement,)
    for part in parts:
        if state.t >= part.deadline:
            raise TransitionError(
                f"cannot accommodate {part.label!r}: its deadline "
                f"{part.deadline} has passed (t={state.t})"
            )
    additions = tuple(ActorProgress(part) for part in parts)
    return replace(state, rho=state.rho + additions)


def leave(state: SystemState, label: str) -> SystemState:
    """Computation leave: remove an accommodated computation.

    Precondition ``t < s`` — a computation that has already started may
    not leave.
    """
    progress = state.progress_of(label)
    if state.t >= progress.start:
        raise TransitionError(
            f"{label!r} has already started (t={state.t} >= s={progress.start})"
        )
    return state.without((progress,))


# ----------------------------------------------------------------------
# Successor enumeration (the tree frame chi)
# ----------------------------------------------------------------------

def _integer_splits(capacity: int, wants: Sequence[int]) -> Iterator[Tuple[int, ...]]:
    """Maximal integer splits of ``capacity`` among ``wants`` (unconsumed
    capacity expires, so non-maximal splits are dominated)."""
    total = min(capacity, sum(wants))

    def rec(i: int, left: int) -> Iterator[Tuple[int, ...]]:
        if i == len(wants) - 1:
            if left <= wants[i]:
                yield (left,)
            return
        tail = sum(wants[i + 1:])
        for x in range(max(0, left - tail), min(wants[i], left) + 1):
            yield from ((x, *rest) for rest in rec(i + 1, left - x))

    if not wants:
        yield ()
    else:
        yield from rec(0, total)


def successors(state: SystemState, dt: int = 1) -> Iterator[Transition]:
    """All distinct transitions out of ``state`` for one ``dt`` slice.

    Branching enumerates, per resource type, every maximal split of the
    slice's (integer) capacity among the computations whose current phase
    wants it.  This realises the paper's tree frame: each branch is the
    start of a different computation path.

    Requires integer capacities and demands (use scaled units otherwise).
    """
    slice_window = Interval(state.t, state.t + dt)
    active = [p for p in state.rho if p.active_at(state.t)]
    ltypes = sorted(
        {lt for p in active for lt in p.current_demands},
        key=lambda lt: (lt.kind, str(lt.location)),
    )
    per_type_options: list[list[tuple[Tuple[str, Time], ...]]] = []
    for ltype in ltypes:
        capacity = state.theta.quantity(ltype, slice_window)
        if capacity != int(capacity):
            raise TransitionError(
                "successor enumeration requires integer capacities; "
                f"{ltype} provides {capacity} during {slice_window}"
            )
        claimants = [
            (p.label, int(min(p.current_demands.get(ltype, 0), capacity)))
            for p in active
            if p.current_demands.get(ltype, 0) > 0
        ]
        if not claimants or capacity <= 0:
            per_type_options.append([()])
            continue
        labels = [label for label, _ in claimants]
        wants = [want for _, want in claimants]
        options = [
            tuple(zip(labels, split))
            for split in _integer_splits(int(capacity), wants)
        ]
        per_type_options.append(options or [()])

    seen: set = set()
    for combo in itertools.product(*per_type_options) if ltypes else [()]:
        allocations: Dict[str, Dict[LocatedType, Time]] = {}
        for type_index, option in enumerate(combo):
            for label, amount in option:
                if amount > 0:
                    allocations.setdefault(label, {})[ltypes[type_index]] = amount
        frozen = tuple(
            sorted(
                (label, tuple(sorted(
                    ((lt.kind, str(lt.location), q) for lt, q in demand.items())
                )))
                for label, demand in allocations.items()
            )
        )
        if frozen in seen:
            continue
        seen.add(frozen)
        yield step(
            state, dt, {label: Demands(demand) for label, demand in allocations.items()}
        )
