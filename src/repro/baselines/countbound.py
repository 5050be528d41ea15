"""Single-count baseline (step logic / TRL / BMCL-style).

The paper criticises prior logics where "resources are represented by some
count, and usually only one type of resource is considered".  This
baseline collapses every located type into one undifferentiated pool: it
admits when the total quantity of *anything* available during the window
covers the newcomer's total demand plus outstanding commitments.

Expected failure mode: wildly over-admits whenever demand is concentrated
on one located type (CPU at one node cannot be paid for with bandwidth
elsewhere), demonstrating why ROTA reifies located types.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.baselines.base import AdmissionPolicy, PolicyDecision
from repro.computation.requirements import ConcurrentRequirement
from repro.decision.admission import deadline_passed
from repro.intervals.interval import Interval, Time
from repro.resources.resource_set import ResourceSet


class CountBoundAdmission(AdmissionPolicy):
    """One global count, no types, no ordering."""

    name = "countbound"

    def __init__(self) -> None:
        self._available = ResourceSet.empty()
        self._commitments: List[Tuple[Interval, Time]] = []

    def observe_resources(self, resources: ResourceSet, now: Time) -> None:
        self._available = self._available | resources

    def decide(self, requirement: ConcurrentRequirement, now: Time) -> PolicyDecision:
        if deadline_passed(requirement, now):
            return PolicyDecision(False, reason="deadline already passed")
        window = Interval(max(requirement.start, now), requirement.deadline)
        pool = sum(
            self._available.quantity(ltype, window)
            for ltype in self._available.located_types
        )
        committed = sum(
            amount
            for other_window, amount in self._commitments
            if window.overlaps(other_window)
        )
        demand = requirement.total_demands.total
        if pool < committed + demand:
            return PolicyDecision(
                False, reason=f"count bound: pool {pool} < {committed + demand}"
            )
        self._commitments.append((window, demand))
        return PolicyDecision(True)
