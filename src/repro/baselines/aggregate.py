"""Aggregate-quantity baseline: the check Section III warns about.

Admits when, for every located type, the total quantity available during
the arrival's window covers the newcomer's total demand plus the
outstanding demands of previously admitted computations with overlapping
windows.  This respects types and windows but **ignores ordering**: a
sequential computation needs "the right resources at the right time", not
merely the right totals.  The paper's own example: extra resources outside
the usable subinterval "do not help satisfy the computation".

Expected failure mode (measured in the accuracy benchmark): over-admission
— computations accepted on aggregate grounds that then miss their
deadlines because the quantities arrive in the wrong order relative to
their phase sequence.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.baselines.base import AdmissionPolicy, PolicyDecision
from repro.computation.demands import Demands
from repro.computation.requirements import ConcurrentRequirement
from repro.decision.admission import deadline_passed
from repro.intervals.interval import Interval, Time
from repro.resources.located_type import LocatedType
from repro.resources.resource_set import ResourceSet


class AggregateAdmission(AdmissionPolicy):
    """Type- and window-aware totals, order-blind."""

    name = "aggregate"

    def __init__(self) -> None:
        self._available = ResourceSet.empty()
        #: (window, total demands) of each admitted computation.
        self._commitments: List[Tuple[Interval, Demands]] = []

    def observe_resources(self, resources: ResourceSet, now: Time) -> None:
        self._available = self._available | resources

    def decide(self, requirement: ConcurrentRequirement, now: Time) -> PolicyDecision:
        if deadline_passed(requirement, now):
            return PolicyDecision(False, reason="deadline already passed")
        window = Interval(max(requirement.start, now), requirement.deadline)
        needed: Dict[LocatedType, Time] = dict(requirement.total_demands)
        # Charge overlapping commitments against the same window.
        for other_window, other_demand in self._commitments:
            if not window.overlaps(other_window):
                continue
            for ltype, quantity in other_demand.items():
                needed[ltype] = needed.get(ltype, 0) + quantity
        for ltype, quantity in needed.items():
            if self._available.quantity(ltype, window) < quantity:
                return PolicyDecision(
                    False,
                    reason=f"aggregate shortfall of {ltype} within {window}",
                )
        # A copy of its own: the arrival's record holds the cached
        # aggregate, and one object held twice pickles once.
        self._commitments.append((window, Demands(requirement.total_demands)))
        return PolicyDecision(True)
