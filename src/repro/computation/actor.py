"""Actors and their derived resource-requirement sequences (Section IV).

The paper abstracts away *what* a computation does and keeps only the
resources each step needs: "we use a sequence of these resource
requirements to refer an actor."  :class:`Actor` holds the behavioural
sequence; :func:`derive_requirements` folds the cost model over it —
tracking the actor's location across ``migrate`` actions — to produce the
sequence of :class:`ActionRequirement` amounts; and
:class:`ActorComputation` (the paper's ``Gamma``) groups that sequence
into ordered *phases* (the paper's subcomputations ``Gamma_1..Gamma_m``).

Phase grouping rule (paper, Section IV-B.2): consecutive actions that
require "the same single type of resource" need not be broken into
separate subcomputations — possessing the total quantity within an
interval already guarantees completion.  Actions demanding multiple types
(e.g. ``migrate``) form phases of their own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.computation.actions import Action, Migrate
from repro.computation.cost_model import CostModel, DEFAULT_COST_MODEL, Placement
from repro.computation.demands import Demands
from repro.errors import InvalidComputationError
from repro.resources.located_type import Node


@dataclass(frozen=True)
class Actor:
    """A named actor with a home location and a behaviour sequence."""

    name: str
    home: Node
    behaviour: tuple[Action, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise InvalidComputationError("actor name must be non-empty")
        if not isinstance(self.home, Node):
            raise InvalidComputationError(
                f"actor home must be a Node, got {self.home!r}"
            )
        object.__setattr__(self, "behaviour", tuple(self.behaviour))

    @property
    def final_location(self) -> Node:
        """Where the actor ends up after executing its behaviour."""
        location = self.home
        for action in self.behaviour:
            if isinstance(action, Migrate):
                location = action.destination
        return location


@dataclass(frozen=True)
class ActionRequirement:
    """One action bound to its resolved resource amounts ``Phi(a, gamma)``."""

    action: Action
    demands: Demands
    location: Node  # where the actor is when the action runs


def derive_requirements(
    actor: Actor,
    placement: Placement | None = None,
    cost_model: CostModel = DEFAULT_COST_MODEL,
) -> tuple[ActionRequirement, ...]:
    """Resolve ``Phi`` over the actor's behaviour, tracking migrations.

    ``placement`` resolves the locations of *other* actors (message
    receivers); the subject actor's own location evolves from ``home``
    through each ``migrate``.
    """
    placement = placement or Placement({actor.name: actor.home})
    location = actor.home
    out: list[ActionRequirement] = []
    for action in actor.behaviour:
        demands = cost_model.requirements(action, location, placement)
        out.append(ActionRequirement(action, demands, location))
        if isinstance(action, Migrate):
            location = action.destination
    return tuple(out)


@dataclass(frozen=True)
class Phase:
    """A maximal run of the requirement sequence treated as one
    subcomputation: its demands may be consumed in any order within the
    phase's eventual subinterval."""

    demands: Demands
    actions: tuple[Action, ...]

    @property
    def is_empty(self) -> bool:
        return self.demands.is_empty


class ActorComputation:
    """The paper's ``Gamma``: an actor's computation as ordered phases.

    Iterable over :class:`Phase`; exposes both the fine-grained action
    requirements and the merged phase view used by Theorem 2 reasoning.
    """

    def __init__(self, actor: Actor, requirements: Sequence[ActionRequirement]) -> None:
        self._actor = actor
        self._requirements = tuple(requirements)
        self._phases = _group_phases(self._requirements)

    # ------------------------------------------------------------------
    @classmethod
    def derive(
        cls,
        actor: Actor,
        placement: Placement | None = None,
        cost_model: CostModel = DEFAULT_COST_MODEL,
    ) -> "ActorComputation":
        """Build from an actor via the cost model (the usual entry point)."""
        return cls(actor, derive_requirements(actor, placement, cost_model))

    # ------------------------------------------------------------------
    @property
    def actor(self) -> Actor:
        return self._actor

    @property
    def name(self) -> str:
        return self._actor.name

    @property
    def requirements(self) -> tuple[ActionRequirement, ...]:
        """Per-action demands, in execution order."""
        return self._requirements

    @property
    def phases(self) -> tuple[Phase, ...]:
        """The subcomputations ``Gamma_1 .. Gamma_m``."""
        return self._phases

    @property
    def phase_count(self) -> int:
        return len(self._phases)

    @property
    def total_demands(self) -> Demands:
        """Aggregate demand ignoring ordering (baseline view)."""
        total = Demands()
        for phase in self._phases:
            total = total.merge(phase.demands)
        return total

    @property
    def is_empty(self) -> bool:
        return not self._phases

    def __iter__(self) -> Iterator[Phase]:
        return iter(self._phases)

    def __len__(self) -> int:
        return len(self._phases)

    def __repr__(self) -> str:
        return (
            f"ActorComputation({self._actor.name!r}, "
            f"{len(self._phases)} phases)"
        )


def _group_phases(requirements: Sequence[ActionRequirement]) -> tuple[Phase, ...]:
    """Merge consecutive single-type requirements of the same located type."""
    phases: list[Phase] = []
    for req in requirements:
        if req.demands.is_empty:
            continue
        if (
            phases
            and req.demands.is_single_type
            and phases[-1].demands.is_single_type
            and phases[-1].demands.located_types() == req.demands.located_types()
        ):
            last = phases[-1]
            phases[-1] = Phase(
                last.demands.merge(req.demands), last.actions + (req.action,)
            )
        else:
            phases.append(Phase(req.demands, (req.action,)))
    return tuple(phases)
