"""Witness schedules produced by the decision procedures.

Theorem 2 characterises feasibility of a sequential computation by the
*existence* of breakpoints ``t_1 .. t_{m-1}``.  Our procedures do better
than a yes/no answer: they return a :class:`Schedule` — the breakpoints
plus the exact consumption profile the computation would claim under the
earliest-finish execution.  Schedules are what admission control commits
to, what the simulator executes, and what Theorem 4's expiring-slack
reasoning subtracts from availability.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping

from repro.computation.requirements import ComplexRequirement
from repro.intervals.interval import Interval, Time
from repro.resources.located_type import LocatedType
from repro.resources.profile import RateProfile
from repro.resources.resource_set import ResourceSet


@dataclass(frozen=True)
class PhaseAssignment:
    """One phase pinned to its subinterval, with its claimed consumption."""

    index: int
    window: Interval
    consumption: Mapping[LocatedType, RateProfile]


@dataclass(frozen=True)
class Schedule:
    """A feasible execution witness for one complex requirement."""

    requirement: ComplexRequirement
    assignments: tuple[PhaseAssignment, ...]

    @property
    def breakpoints(self) -> tuple[Time, ...]:
        """The interior breakpoints ``t_1 .. t_{m-1}`` of Theorem 2."""
        return tuple(a.window.end for a in self.assignments[:-1])

    @property
    def finish_time(self) -> Time:
        """When the last phase completes (<= the deadline)."""
        return self.assignments[-1].window.end if self.assignments else (
            self.requirement.start
        )

    @property
    def slack(self) -> Time:
        """Time to spare before the deadline."""
        return self.requirement.deadline - self.finish_time

    def consumption(self) -> ResourceSet:
        """Everything the schedule claims, as a resource set.

        This is what must be subtracted from system availability when the
        schedule is committed (and what Theorem 4 reasoning treats as
        *not* expiring).
        """
        per_type: Dict[LocatedType, list[RateProfile]] = {}
        for assignment in self.assignments:
            for ltype, profile in assignment.consumption.items():
                per_type.setdefault(ltype, []).append(profile)
        return ResourceSet.from_profiles(
            {ltype: RateProfile.sum(group) for ltype, group in per_type.items()}
        )

    def __repr__(self) -> str:
        return (
            f"Schedule({self.requirement.label or '?'}: finish={self.finish_time}, "
            f"breakpoints={list(self.breakpoints)})"
        )


@dataclass(frozen=True)
class ConcurrentSchedule:
    """Witness for a concurrent requirement: one schedule per actor."""

    schedules: tuple[Schedule, ...]

    @property
    def finish_time(self) -> Time:
        return max((s.finish_time for s in self.schedules), default=0)

    def consumption(self) -> ResourceSet:
        per_type: Dict[LocatedType, list[RateProfile]] = {}
        for schedule in self.schedules:
            for assignment in schedule.assignments:
                for ltype, profile in assignment.consumption.items():
                    per_type.setdefault(ltype, []).append(profile)
        return ResourceSet.from_profiles(
            {ltype: RateProfile.sum(group) for ltype, group in per_type.items()}
        )

    def __iter__(self):
        return iter(self.schedules)

    def __len__(self) -> int:
        return len(self.schedules)
