"""ROTA system states ``S = (Theta, rho, t)`` (paper Section V-A).

``Theta`` is the set of resource terms describing *future* availability
starting from ``t``; ``rho`` is the resource requirements of the
computations the system has accommodated; ``t`` is the current time.

``rho`` is represented as a tuple of :class:`ActorProgress` records — one
per accommodated actor computation — each tracking which phase the actor
has reached and how much of that phase's demand remains.  This is the
state the labeled transition rules decrement: the paper's
``[q - r x dt]^{(t, t')}_xi``.

An actor that is complete, or whose deadline has passed, has no possible
action left (the general transition rule only advances the others).
:meth:`SystemState.drop_finished` forgets such actors, so the timed
rules walk only live work; the open-system simulator drops them after
every slice.

States are immutable value objects, hashable so path enumeration can
memoise visited configurations.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Optional

from repro.computation.demands import Demands
from repro.computation.requirements import ComplexRequirement
from repro.errors import TransitionError
from repro.intervals.interval import Time
from repro.resources.resource_set import ResourceSet


@dataclass(frozen=True)
class ActorProgress:
    """One accommodated actor computation and its execution progress."""

    requirement: ComplexRequirement
    phase: int = 0
    remaining: Optional[Demands] = None  # None means "phase's full demand"

    def __post_init__(self) -> None:
        if not 0 <= self.phase <= len(self.requirement.phases):
            raise TransitionError(
                f"phase index {self.phase} out of range for "
                f"{self.requirement!r}"
            )
        if self.remaining is None and not self.is_complete:
            object.__setattr__(
                self, "remaining", self.requirement.phases[self.phase]
            )
        if self.remaining is None and self.is_complete:
            object.__setattr__(self, "remaining", Demands())

    # ------------------------------------------------------------------
    @property
    def label(self) -> str:
        return self.requirement.label

    @property
    def is_complete(self) -> bool:
        """All phases' demands have been consumed."""
        return self.phase >= len(self.requirement.phases)

    @property
    def current_demands(self) -> Demands:
        """What the actor's *possible action* currently needs (Definition
        1: only the head of the sequence is eligible)."""
        if self.is_complete:
            return Demands()
        return self.remaining  # type: ignore[return-value]

    @property
    def start(self) -> Time:
        return self.requirement.start

    @property
    def deadline(self) -> Time:
        return self.requirement.deadline

    def active_at(self, t: Time) -> bool:
        """Whether the actor may consume resources at time ``t``."""
        return (not self.is_complete) and self.start <= t < self.deadline

    def finished_at(self, t: Time) -> bool:
        """Whether the actor can never act again from ``t`` on: it is
        complete, or its deadline has passed."""
        return self.is_complete or t >= self.deadline

    # ------------------------------------------------------------------
    def after_consuming(self, consumed: Demands) -> "ActorProgress":
        """Progress after consuming ``consumed`` towards the current phase.

        Consumption beyond the phase's remaining demand is a modelling
        error (the transition rules only hand an actor what its current
        simple requirement asks for).
        """
        if self.is_complete:
            if consumed.is_empty:
                return self
            raise TransitionError(
                f"completed computation {self.label!r} cannot consume"
            )
        remaining: Demands = self.remaining  # type: ignore[assignment]
        for ltype, amount in consumed.items():
            if amount > remaining.get(ltype, 0):
                raise TransitionError(
                    f"{self.label!r} consumed {amount} of {ltype} but its "
                    f"current phase only needs {remaining.get(ltype, 0)}"
                )
        left = remaining.saturating_sub(consumed)
        # Snap float dust: residual demand below tolerance counts as
        # satisfied, or a 1e-14 remainder would hold a phase open a whole
        # extra slice.  The tolerance applies only once a float has
        # entered the computation — an exact int/Fraction residue, however
        # small, is genuinely outstanding demand and must keep the phase
        # open (Demands drops exact zeros on construction).
        from repro.resources.profile import EPSILON, is_exact

        dusty = [
            lt
            for lt, q in left.items()
            if not is_exact(q) and float(q) < EPSILON
        ]
        if dusty:
            left = Demands({lt: q for lt, q in left.items() if lt not in dusty})
        progress = ActorProgress(self.requirement, self.phase, left)
        return progress.normalised()

    def normalised(self) -> "ActorProgress":
        """Advance past phases whose demand has reached zero."""
        progress = self
        while (
            not progress.is_complete
            and progress.current_demands.is_empty
        ):
            next_phase = progress.phase + 1
            remaining = (
                progress.requirement.phases[next_phase]
                if next_phase < len(progress.requirement.phases)
                else Demands()
            )
            progress = ActorProgress(progress.requirement, next_phase, remaining)
        return progress

    def __repr__(self) -> str:
        if self.is_complete:
            return f"ActorProgress({self.label!r}: complete)"
        return (
            f"ActorProgress({self.label!r}: phase {self.phase + 1}/"
            f"{len(self.requirement.phases)}, remaining {self.remaining!r})"
        )


@dataclass(frozen=True)
class SystemState:
    """``S = (Theta, rho, t)``."""

    theta: ResourceSet
    rho: tuple[ActorProgress, ...]
    t: Time

    def __post_init__(self) -> None:
        object.__setattr__(self, "rho", tuple(self.rho))

    # ------------------------------------------------------------------
    @property
    def is_quiescent(self) -> bool:
        """No accommodated computation has outstanding demand."""
        return all(progress.is_complete for progress in self)

    @property
    def pending(self) -> tuple[ActorProgress, ...]:
        """Accommodated computations with outstanding demand."""
        return tuple(p for p in self if not p.is_complete)

    @property
    def missed(self) -> tuple[ActorProgress, ...]:
        """Computations whose deadline has passed with demand outstanding."""
        return tuple(
            p for p in self if not p.is_complete and self.t >= p.deadline
        )

    def progress_of(self, label: str) -> ActorProgress:
        for progress in self:
            if progress.label == label:
                return progress
        raise KeyError(f"no accommodated computation labelled {label!r}")

    def without(self, doomed: Iterable[ActorProgress]) -> "SystemState":
        """The state with the given actors removed from ``rho``."""
        ids = {id(p) for p in doomed}
        return replace(self, rho=tuple(p for p in self.rho if id(p) not in ids))

    def drop_finished(self) -> "SystemState":
        """The state without the actors of ``rho`` that are finished at
        ``t`` (see :meth:`ActorProgress.finished_at`), keeping the order
        of the rest.  Costs one pass over ``rho``."""
        live = tuple(p for p in self.rho if not p.finished_at(self.t))
        if len(live) == len(self.rho):
            return self
        return replace(self, rho=live)

    def __iter__(self) -> Iterator[ActorProgress]:
        return iter(self.rho)

    def __repr__(self) -> str:
        return (
            f"SystemState(t={self.t}, {len(self.rho)} computations, "
            f"{len(self.theta.located_types)} resource types)"
        )


def initial_state(theta: ResourceSet, t: Time = 0) -> SystemState:
    """``S_0 = (Theta, 0, t)`` — resources but nothing to use them yet."""
    return SystemState(theta, (), t)
