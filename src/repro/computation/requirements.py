"""Resource requirements ``rho`` (paper Section IV-B).

Three levels, mirroring the paper exactly:

* :class:`SimpleRequirement` — ``rho(gamma, s, d)``: one action's amounts
  needed somewhere inside window ``(s, d)``.
* :class:`ComplexRequirement` — ``rho(Gamma, s, d)``: an actor's ordered
  phases, each of which must be satisfied inside its own subinterval of
  ``(s, d)``; the subinterval boundaries (the paper's ``t_1..t_{m-1}``)
  are *not* fixed in advance — finding them is the decision problem of
  Theorem 2.
* :class:`ConcurrentRequirement` — ``rho(Lambda, s, d)``: independent
  actors' complex requirements overlapping on the same window.

The satisfaction function ``f(Theta, rho(gamma, s, d))`` of the paper is
:meth:`SimpleRequirement.satisfied_by`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from repro.computation.actor import ActorComputation
from repro.computation.demands import Demands
from repro.errors import InvalidComputationError
from repro.intervals.interval import Interval, Time
from repro.resources.resource_set import ResourceSet


def _check_window(window: Interval) -> None:
    if window.is_empty:
        raise InvalidComputationError(
            f"requirement window must be non-empty, got {window}"
        )


@dataclass(frozen=True)
class SimpleRequirement:
    """``rho(gamma, s, d) = [Phi(a, gamma)]^{(s,d)}``."""

    demands: Demands
    window: Interval

    def __post_init__(self) -> None:
        _check_window(self.window)

    @property
    def start(self) -> Time:
        return self.window.start

    @property
    def deadline(self) -> Time:
        return self.window.end

    def satisfied_by(self, available: ResourceSet) -> bool:
        """The paper's ``f(Theta, rho(gamma, s, d))``: for every located
        type, the quantity of it existing within the window covers the
        demand (``U_s^d Theta >= Phi(gamma)``)."""
        return available.can_supply(self.demands, self.window)

    def __repr__(self) -> str:
        return f"SimpleRequirement({self.demands!r}, {self.window})"


class ComplexRequirement:
    """``rho(Gamma, s, d)``: ordered phases within a shared window."""

    __slots__ = ("_phases", "_window", "_label", "_total")

    def __init__(
        self,
        phases: Iterable[Demands],
        window: Interval,
        label: str = "",
    ) -> None:
        _check_window(window)
        cleaned = tuple(Demands(p) for p in phases)
        cleaned = tuple(p for p in cleaned if not p.is_empty)
        if not cleaned:
            raise InvalidComputationError(
                "a complex requirement needs at least one non-empty phase"
            )
        self._phases = cleaned
        self._window = window
        self._label = label

    # ------------------------------------------------------------------
    @classmethod
    def from_computation(
        cls, computation: ActorComputation, window: Interval
    ) -> "ComplexRequirement":
        """``rho`` applied to an actor computation."""
        return cls(
            (phase.demands for phase in computation.phases),
            window,
            label=computation.name,
        )

    # ------------------------------------------------------------------
    @property
    def phases(self) -> tuple[Demands, ...]:
        return self._phases

    @property
    def window(self) -> Interval:
        return self._window

    @property
    def start(self) -> Time:
        return self._window.start

    @property
    def deadline(self) -> Time:
        return self._window.end

    @property
    def label(self) -> str:
        """The owning actor's name, when derived from one."""
        return self._label

    @property
    def phase_count(self) -> int:
        return len(self._phases)

    @property
    def total_demands(self) -> Demands:
        """Order-blind aggregate over all phases, summed on first read."""
        try:
            return self._total
        except AttributeError:
            total = Demands()
            for phase in self._phases:
                total = total.merge(phase)
            self._total = total
            return total

    def simple(self, index: int, window: Interval) -> SimpleRequirement:
        """The ``index``-th phase pinned to a concrete subinterval — one
        term of the paper's decomposition ``rho(Gamma_1, s, t_1) ...``."""
        return SimpleRequirement(self._phases[index], window)

    def decompose(self, breakpoints: Sequence[Time]) -> tuple[SimpleRequirement, ...]:
        """Pin every phase using the given interior breakpoints
        ``t_1 < ... < t_{m-1}`` (Theorem 2's witnesses).

        ``len(breakpoints)`` must be ``phase_count - 1`` and the points
        must be non-decreasing within the window.
        """
        if len(breakpoints) != len(self._phases) - 1:
            raise InvalidComputationError(
                f"expected {len(self._phases) - 1} breakpoints, got {len(breakpoints)}"
            )
        bounds = [self.start, *breakpoints, self.deadline]
        for earlier, later in zip(bounds, bounds[1:]):
            if earlier > later:
                raise InvalidComputationError(
                    f"breakpoints must be non-decreasing within the window, got {bounds}"
                )
        pinned: list[SimpleRequirement] = []
        for i, phase in enumerate(self._phases):
            if bounds[i] >= bounds[i + 1]:
                raise InvalidComputationError(
                    f"phase {i} was assigned an empty subinterval "
                    f"({bounds[i]}, {bounds[i + 1]}) but has demand {phase!r}"
                )
            pinned.append(SimpleRequirement(phase, Interval(bounds[i], bounds[i + 1])))
        return tuple(pinned)

    def __iter__(self) -> Iterator[Demands]:
        return iter(self._phases)

    def __len__(self) -> int:
        return len(self._phases)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ComplexRequirement):
            return NotImplemented
        return (
            self._phases == other._phases
            and self._window == other._window
            and self._label == other._label
        )

    def __hash__(self) -> int:
        return hash((self._phases, self._window, self._label))

    def __getstate__(self):
        # The slots' default state without the derived aggregate.
        return None, {
            "_phases": self._phases,
            "_window": self._window,
            "_label": self._label,
        }

    def __repr__(self) -> str:
        return (
            f"ComplexRequirement({self._label or '?'}: {len(self._phases)} phases, "
            f"{self._window})"
        )


class ConcurrentRequirement:
    """``rho(Lambda, s, d)``: independent actors sharing one window."""

    __slots__ = ("_components", "_window", "_total")

    def __init__(
        self, components: Iterable[ComplexRequirement], window: Interval
    ) -> None:
        _check_window(window)
        parts = tuple(components)
        if not parts:
            raise InvalidComputationError(
                "a concurrent requirement needs at least one component"
            )
        for part in parts:
            if not window.contains(part.window):
                raise InvalidComputationError(
                    f"component window {part.window} exceeds computation window {window}"
                )
        self._components = parts
        self._window = window

    @property
    def components(self) -> tuple[ComplexRequirement, ...]:
        return self._components

    @property
    def window(self) -> Interval:
        return self._window

    @property
    def start(self) -> Time:
        return self._window.start

    @property
    def deadline(self) -> Time:
        return self._window.end

    @property
    def total_demands(self) -> Demands:
        """Aggregate over every component, summed on first read."""
        try:
            return self._total
        except AttributeError:
            total = Demands()
            for part in self._components:
                total = total.merge(part.total_demands)
            self._total = total
            return total

    def __iter__(self) -> Iterator[ComplexRequirement]:
        return iter(self._components)

    def __len__(self) -> int:
        return len(self._components)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ConcurrentRequirement):
            return NotImplemented
        return self._components == other._components and self._window == other._window

    def __hash__(self) -> int:
        return hash((self._components, self._window))

    def __getstate__(self):
        # The slots' default state without the derived aggregate.
        return None, {
            "_components": self._components,
            "_window": self._window,
        }

    def __repr__(self) -> str:
        return (
            f"ConcurrentRequirement({len(self._components)} actors, {self._window})"
        )
