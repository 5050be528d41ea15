"""Theorem 2 — sequential computation accommodation.

A system can accommodate ``(Gamma, s, d)`` iff breakpoints
``t_1 < .. < t_{m-1}`` exist dividing ``(s, d)`` so that every phase's
simple requirement is satisfied within its own subinterval.

The procedure here finds such breakpoints greedily: each phase starts when
the previous one finished and claims each of its located types as early as
possible at the full available rate; the phase finishes when the slowest
of its types has accumulated its amount.  Greedy earliest-finish is exact
for a single computation against a fixed availability profile:

* availability integrals are monotone non-decreasing in the window end,
  so finishing a phase earlier never shrinks what later phases can use;
* a standard exchange argument turns any feasible breakpoint vector into
  the greedy one without violating any phase's requirement.

``tests/test_decision_sequential.py`` cross-validates this claim against
the independent brute-force searcher on randomized instances.
"""

from __future__ import annotations

import math
from typing import Dict, Optional

from repro.computation.demands import Demands
from repro.computation.requirements import ComplexRequirement
from repro.decision.schedule import PhaseAssignment, Schedule
from repro.intervals.interval import Interval, Time
from repro.resources.located_type import LocatedType
from repro.resources.resource_set import ResourceSet


def _phase_plan(
    available: ResourceSet, demands: Demands, start: Time
) -> Optional[Dict[LocatedType, Time]]:
    """Per-type earliest finish times of one phase started at ``start``.

    One ``earliest_accumulation`` call per located type, shared by the
    feasibility check and the consumption claim (the split helpers below
    each recomputed it).  ``None`` when some amount can never be
    accumulated.
    """
    finishes: Dict[LocatedType, Time] = {}
    for ltype, quantity in demands.items():
        t = available.profile(ltype).earliest_accumulation(start, quantity)
        if t is None:
            return None
        finishes[ltype] = t
    return finishes


def earliest_phase_finish(
    available: ResourceSet, demands: Demands, start: Time
) -> Optional[Time]:
    """Earliest time by which every amount in ``demands`` can be
    accumulated when consumption starts at ``start``; ``None`` if some
    amount can never be accumulated."""
    finishes = _phase_plan(available, demands, start)
    if finishes is None:
        return None
    return max(finishes.values(), default=start)


def _align_up(t: Time, align: Time) -> Time:
    """Smallest multiple of ``align`` that is >= ``t`` (grid anchored at 0).

    Exact operands divide exactly: two ints by floor division (``t /
    align`` would round through a float and, past 2**53, land on a
    multiple below ``t``), a ``Fraction`` by its own exact ceiling.  The
    result is an int for int operands, as before."""
    if isinstance(t, int) and isinstance(align, int):
        return -(-t // align) * align
    quotient = t / align
    rounded = math.ceil(quotient)
    # Guard against float fuzz pushing an exact multiple up a full step.
    if (rounded - 1) * align >= t:
        rounded -= 1
    return rounded * align


def find_schedule(
    available: ResourceSet,
    requirement: ComplexRequirement,
    *,
    align: Optional[Time] = None,
) -> Optional[Schedule]:
    """Greedy earliest-finish witness for ``rho(Gamma, s, d)``.

    Returns a :class:`Schedule` whose breakpoints satisfy Theorem 2, or
    ``None`` when the requirement cannot be accommodated by ``available``.

    ``align`` rounds every phase boundary up to the given time grid.  The
    paper's transition rules advance in slices of ``Delta t`` — "the
    smallest time slice that the system can account for" — and an executor
    that switches phases only at slice boundaries can follow a witness
    exactly only if the witness's breakpoints lie on the grid.  Exact
    (continuous) reasoning is the default; admission controllers feeding a
    ``Delta t`` executor pass their slice length.
    """
    t = requirement.start
    deadline = requirement.deadline
    assignments: list[PhaseAssignment] = []
    for index, demands in enumerate(requirement.phases):
        finishes = _phase_plan(available, demands, t)
        if finishes is None:
            return None
        finish = max(finishes.values(), default=t)
        if align is not None:
            finish = _align_up(finish, align)
        if finish > deadline:
            return None
        # The claim reuses the per-type finish times computed above: each
        # type is clamped to its own accumulation window (alignment moves
        # only the phase boundary, not the claimed consumption).
        consumption = {
            ltype: available.profile(ltype).clamp(Interval(t, type_finish))
            for ltype, type_finish in finishes.items()
        }
        assignments.append(
            PhaseAssignment(index, Interval(t, max(finish, t)), consumption)
        )
        t = finish
    return Schedule(requirement, tuple(assignments))


def is_feasible(available: ResourceSet, requirement: ComplexRequirement) -> bool:
    """Theorem 2 as a predicate."""
    return find_schedule(available, requirement) is not None


def earliest_finish_time(
    available: ResourceSet, requirement: ComplexRequirement
) -> Optional[Time]:
    """The earliest completion time of the whole computation, ignoring the
    deadline (useful for laxity metrics); ``None`` when never completable."""
    t = requirement.start
    for demands in requirement.phases:
        finish = earliest_phase_finish(available, demands, t)
        if finish is None:
            return None
        t = finish
    return t
