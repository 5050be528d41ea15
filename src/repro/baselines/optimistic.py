"""Admit-everything baseline.

The degenerate lower bound: no reasoning at all.  Every arrival whose
deadline has not already passed is admitted.  Against it, every other
policy's precision gain is measured.
"""

from __future__ import annotations

from repro.baselines.base import AdmissionPolicy, PolicyDecision
from repro.computation.requirements import ConcurrentRequirement
from repro.decision.admission import deadline_passed
from repro.intervals.interval import Time
from repro.resources.resource_set import ResourceSet


class OptimisticAdmission(AdmissionPolicy):
    """Always admit (unless the deadline is already unreachable)."""

    name = "optimistic"

    def observe_resources(self, resources: ResourceSet, now: Time) -> None:
        pass

    def decide(self, requirement: ConcurrentRequirement, now: Time) -> PolicyDecision:
        if deadline_passed(requirement, now):
            return PolicyDecision(False, reason="deadline already passed")
        return PolicyDecision(True)
