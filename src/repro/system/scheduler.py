"""Allocation policies: who gets the slice's resources.

At every ``dt`` slice the simulator must choose a concrete allocation —
one branch of the ROTA evolution tree.  Policies implement that choice:

* :class:`FcfsPolicy` — admission order drains capacity first (the
  canonical branch of :func:`repro.logic.transitions.greedy_allocations`).
* :class:`EdfPolicy` — earliest-deadline-first: classic for deadline
  workloads; used as the default executor for baseline-admitted work.
* :class:`ReservationPolicy` — follows the witness schedules that ROTA
  admission committed to: each computation receives exactly what its
  claimed consumption profile says for this slice (clipped to remaining
  demand).  Executing the committed path is what makes Theorem 4's
  "without affecting the current executing computations" literal.
"""

from __future__ import annotations

import abc
from typing import Dict, Mapping

from repro.computation.demands import Demands
from repro.decision.schedule import ConcurrentSchedule
from repro.intervals.interval import Interval, Time
from repro.logic.state import ActorProgress, SystemState
from repro.logic.transitions import greedy_allocations
from repro.resources.located_type import LocatedType


class AllocationPolicy(abc.ABC):
    """Chooses each slice's allocations (a branch of the evolution tree)."""

    @abc.abstractmethod
    def allocate(self, state: SystemState, dt: Time) -> Mapping[str, Demands]:
        """Allocations for the slice ``(state.t, state.t + dt)``.

        Only ``state.rho`` can consume, and it holds live actors only:
        the simulator drops every actor that can never act again."""


def _deadline_first(progress: ActorProgress) -> tuple:
    return (progress.deadline, progress.label)


class FcfsPolicy(AllocationPolicy):
    """First come, first served (admission order)."""

    def allocate(self, state: SystemState, dt: Time) -> Mapping[str, Demands]:
        return greedy_allocations(state, dt)


class EdfPolicy(AllocationPolicy):
    """Earliest deadline first."""

    def allocate(self, state: SystemState, dt: Time) -> Mapping[str, Demands]:
        return greedy_allocations(state, dt, _deadline_first)


class ReservationPolicy(AllocationPolicy):
    """Follow committed witness schedules; leftovers go EDF.

    :meth:`reserve` maps a computation label to the witness schedule the
    admission controller committed for it.  Computations without a
    reservation (e.g. admitted by a baseline policy under comparison)
    fall back to EDF over whatever the reserved ones leave behind.
    """

    def __init__(self) -> None:
        self._reservations: Dict[str, ConcurrentSchedule] = {}

    def reserve(self, label: str, schedule: ConcurrentSchedule) -> None:
        self._reservations[label] = schedule

    def release(self, label: str) -> None:
        self._reservations.pop(label, None)

    def allocate(self, state: SystemState, dt: Time) -> Mapping[str, Demands]:
        window = Interval(state.t, state.t + dt)
        capacity: Dict[LocatedType, Time] = {
            lt: state.theta.quantity(lt, window)
            for lt in state.theta.located_types
        }
        allocations: Dict[str, Demands] = {}
        reserved_active: list[ActorProgress] = []
        unreserved_active: list[ActorProgress] = []
        for progress in state.rho:
            if not progress.active_at(state.t):
                continue
            owner = progress.label.split("[")[0]
            if progress.label in self._reservations or owner in self._reservations:
                reserved_active.append(progress)
            else:
                unreserved_active.append(progress)

        for progress in reserved_active:
            owner = (
                progress.label
                if progress.label in self._reservations
                else progress.label.split("[")[0]
            )
            schedule = self._reservations[owner]
            claimed = _claim_for(schedule, progress.label, window)
            granted: Dict[LocatedType, Time] = {}
            for ltype, want in progress.current_demands.items():
                take = min(want, claimed.get(ltype, 0), capacity.get(ltype, 0))
                if take > 0:
                    granted[ltype] = take
                    capacity[ltype] -= take
            if granted:
                allocations[progress.label] = Demands(granted)

        # Remaining capacity flows EDF to unreserved computations, then —
        # work conservation — to reserved ones that have fallen behind
        # their claims (e.g. after quantisation slippage).  Per-slice
        # capacity expires anyway, so topping up never endangers another
        # reservation's future claims.
        for progress in sorted(
            unreserved_active + reserved_active, key=_deadline_first
        ):
            already = dict(allocations.get(progress.label, Demands()))
            granted = dict(already)
            changed = False
            for ltype, want in progress.current_demands.items():
                outstanding = want - already.get(ltype, 0)
                take = min(outstanding, capacity.get(ltype, 0))
                if take > 0:
                    granted[ltype] = granted.get(ltype, 0) + take
                    capacity[ltype] -= take
                    changed = True
            if changed:
                allocations[progress.label] = Demands(granted)
        return allocations


def _claim_for(
    schedule: ConcurrentSchedule, label: str, window: Interval
) -> Dict[LocatedType, Time]:
    """Quantity the witness schedule claims for ``label`` in the window."""
    claim: Dict[LocatedType, Time] = {}
    for component in schedule.schedules:
        if component.requirement.label not in ("", label):
            continue
        for assignment in component.assignments:
            for ltype, profile in assignment.consumption.items():
                amount = profile.integral(window)
                if amount > 0:
                    claim[ltype] = claim.get(ltype, 0) + amount
    return claim
