"""Choosing between courses of action (paper Sections I and VI).

The paper motivates ROTA as letting computations "avoid attempting
infeasible pursuits" and closes with the migration question: "an actor
could continue to execute at its current location or migrate elsewhere,
carry out part of its computation, and then return and resume.  Comparing
these choices presents some interesting challenges."

This module turns that comparison into an API:

* :func:`evaluate_plans` — score a set of named alternatives (each a
  requirement) against one resource picture: feasible?, predicted finish,
  slack, total demand;
* :func:`choose_plan` — pick the best feasible one under a pluggable
  objective (earliest finish by default);
* :func:`migration_plans` — generate the stay/migrate/round-trip variants
  of an actor's work across candidate locations, using the cost model to
  price the moves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Optional, Sequence

from repro.computation.actions import Action, Evaluate, Migrate
from repro.computation.actor import Actor, ActorComputation
from repro.computation.cost_model import CostModel, DEFAULT_COST_MODEL, Placement
from repro.computation.requirements import ComplexRequirement
from repro.decision.schedule import Schedule
from repro.decision.sequential import find_schedule
from repro.errors import InvalidComputationError
from repro.intervals.interval import Interval, Time
from repro.resources.located_type import Node
from repro.resources.resource_set import ResourceSet


@dataclass(frozen=True)
class PlanOutcome:
    """One alternative, evaluated."""

    name: str
    requirement: ComplexRequirement
    feasible: bool
    schedule: Optional[Schedule] = None

    @property
    def finish_time(self) -> Optional[Time]:
        return self.schedule.finish_time if self.schedule else None

    @property
    def slack(self) -> Optional[Time]:
        return self.schedule.slack if self.schedule else None


def evaluate_plans(
    available: ResourceSet,
    alternatives: Mapping[str, ComplexRequirement],
    *,
    align: Optional[Time] = None,
) -> tuple[PlanOutcome, ...]:
    """Evaluate every alternative against the same resource picture."""
    outcomes = []
    for name, requirement in alternatives.items():
        schedule = find_schedule(available, requirement, align=align)
        outcomes.append(
            PlanOutcome(name, requirement, schedule is not None, schedule)
        )
    return tuple(outcomes)


def choose_plan(
    available: ResourceSet,
    alternatives: Mapping[str, ComplexRequirement],
    *,
    objective: Callable[[PlanOutcome], float] | None = None,
    align: Optional[Time] = None,
) -> Optional[PlanOutcome]:
    """The best feasible alternative (earliest finish by default), or
    None when every pursuit is infeasible — the case the paper says a
    computation should detect *before* attempting it."""
    outcomes = evaluate_plans(available, alternatives, align=align)
    feasible = [o for o in outcomes if o.feasible]
    if not feasible:
        return None
    if objective is None:
        objective = lambda o: o.finish_time  # noqa: E731 - tiny default
    return min(feasible, key=objective)


# ----------------------------------------------------------------------
# Migration alternatives
# ----------------------------------------------------------------------

def migration_plans(
    actor: Actor,
    work: Sequence[Action],
    candidates: Iterable[Node],
    window: Interval,
    *,
    cost_model: CostModel = DEFAULT_COST_MODEL,
    placement: Placement | None = None,
    round_trip: bool = False,
    migration_size: float = 1,
) -> dict[str, ComplexRequirement]:
    """Stay/migrate variants of the same logical work.

    * ``stay`` — run ``work`` at the actor's home;
    * ``via-<node>`` — migrate to each candidate, run the work there (and
      migrate back first-class when ``round_trip``), per the paper's
      "carry out part of its computation, and then return and resume".
    """
    if window.is_empty:
        raise InvalidComputationError("planning window must be non-empty")
    placement = placement or Placement({actor.name: actor.home})
    plans: dict[str, ComplexRequirement] = {}

    def requirement_for(name: str, behaviour: Sequence[Action]) -> ComplexRequirement:
        variant = Actor(actor.name, actor.home, tuple(behaviour))
        gamma = ActorComputation.derive(variant, placement.copy(), cost_model)
        return ComplexRequirement(
            (phase.demands for phase in gamma.phases), window, label=name
        )

    plans["stay"] = requirement_for("stay", tuple(work))
    for node in candidates:
        if node == actor.home:
            continue
        behaviour: list[Action] = [Migrate(node, size=migration_size), *work]
        if round_trip:
            behaviour.append(Migrate(actor.home, size=migration_size))
        plans[f"via-{node.name}"] = requirement_for(f"via-{node.name}", behaviour)
    return plans


def best_location(
    actor: Actor,
    work: Sequence[Action],
    candidates: Iterable[Node],
    available: ResourceSet,
    window: Interval,
    *,
    cost_model: CostModel = DEFAULT_COST_MODEL,
    round_trip: bool = False,
) -> Optional[PlanOutcome]:
    """One-call form: generate the alternatives and choose."""
    plans = migration_plans(
        actor, work, candidates, window,
        cost_model=cost_model, round_trip=round_trip,
    )
    return choose_plan(available, plans)
