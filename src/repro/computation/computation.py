"""Distributed computations ``(Lambda, s, d)`` (paper Section IV-B).

A distributed computation is a triple of a multi-actor computation
``Lambda``, an earliest start time ``s``, and a deadline ``d``.  The
actors are independent (created en masse, never waiting on each other) and
do not migrate for resource reasons, so their requirement sequences are
fully determined by the cost model and the initial placement.

:class:`Computation` binds actors to a window and derives the
:class:`~repro.computation.requirements.ConcurrentRequirement` the
decision procedures and the logic operate on.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from repro.computation.actor import Actor, ActorComputation
from repro.computation.cost_model import CostModel, DEFAULT_COST_MODEL, Placement
from repro.computation.requirements import (
    ComplexRequirement,
    ConcurrentRequirement,
)
from repro.errors import InvalidComputationError
from repro.intervals.interval import Interval, Time

_counter = itertools.count(1)


def _default_name() -> str:
    return f"computation-{next(_counter)}"


@dataclass(frozen=True)
class Computation:
    """The paper's ``(Lambda, s, d)`` triple.

    ``actors`` is the multi-actor computation Lambda; ``window`` carries
    the earliest start ``s`` and the deadline ``d``.  Construction
    validates the triple; :meth:`requirement` derives ``rho(Lambda, s, d)``
    against a cost model.
    """

    actors: tuple[Actor, ...]
    window: Interval
    name: str = field(default_factory=_default_name)

    def __post_init__(self) -> None:
        object.__setattr__(self, "actors", tuple(self.actors))
        if not self.actors:
            raise InvalidComputationError("a computation needs at least one actor")
        if self.window.is_empty:
            raise InvalidComputationError(
                f"computation window must be non-empty, got {self.window}"
            )
        names = [a.name for a in self.actors]
        if len(set(names)) != len(names):
            raise InvalidComputationError(
                f"actor names must be globally unique, got duplicates in {names}"
            )
        for actor in self.actors:
            if not actor.behaviour:
                raise InvalidComputationError(
                    f"actor {actor.name!r} has an empty behaviour"
                )

    # ------------------------------------------------------------------
    @property
    def start(self) -> Time:
        """``s`` — the computation does not seek to begin before this."""
        return self.window.start

    @property
    def deadline(self) -> Time:
        """``d`` — the computation seeks to complete before this."""
        return self.window.end

    @property
    def is_sequential(self) -> bool:
        """True for single-actor computations (Theorem 2's setting)."""
        return len(self.actors) == 1

    def default_placement(self) -> Placement:
        """Each actor at its home location."""
        return Placement({actor.name: actor.home for actor in self.actors})

    # ------------------------------------------------------------------
    def actor_computations(
        self,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        placement: Placement | None = None,
    ) -> tuple[ActorComputation, ...]:
        """Derive each actor's ``Gamma`` under the cost model."""
        placement = placement or self.default_placement()
        return tuple(
            ActorComputation.derive(actor, placement, cost_model)
            for actor in self.actors
        )

    def requirement(
        self,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        placement: Placement | None = None,
    ) -> ConcurrentRequirement:
        """``rho(Lambda, s, d)`` — the requirement the system must satisfy."""
        components = tuple(
            ComplexRequirement.from_computation(gamma, self.window)
            for gamma in self.actor_computations(cost_model, placement)
        )
        return ConcurrentRequirement(components, self.window)

    def __iter__(self) -> Iterator[Actor]:
        return iter(self.actors)

    def __len__(self) -> int:
        return len(self.actors)


def sequential(
    actor: Actor, start: Time, deadline: Time, name: str | None = None
) -> Computation:
    """Single-actor computation ``(Gamma, s, d)``."""
    return Computation((actor,), Interval(start, deadline), name or _default_name())


def concurrent(
    actors: Sequence[Actor], start: Time, deadline: Time, name: str | None = None
) -> Computation:
    """Multi-actor computation ``(Lambda, s, d)``."""
    return Computation(tuple(actors), Interval(start, deadline), name or _default_name())
