"""Start-point capacity baseline (parcPlan-style).

The paper's related work describes parcPlan as determining resource
feasibility "by checking the resource capacity constraint at starting
points of resource requests".  This baseline emulates that: it divides the
arrival's window evenly among its phases and checks, at each phase's
nominal starting instant, that the *instantaneous* rate then available
covers the phase's average required rate.

Two blind spots, by construction:

* no commitment tracking — capacity looks free even when an earlier
  admission will be consuming it (over-admission under load);
* instantaneous rates only — a burst of capacity just after the checked
  instant is invisible (under-admission on bursty profiles).

Both directions are measured in the accuracy benchmark.
"""

from __future__ import annotations

from repro.baselines.base import AdmissionPolicy, PolicyDecision
from repro.computation.requirements import ConcurrentRequirement
from repro.decision.admission import deadline_passed
from repro.intervals.interval import Time
from repro.resources.profile import exact_div
from repro.resources.resource_set import ResourceSet


class StartPointAdmission(AdmissionPolicy):
    """Instantaneous-rate checks at nominal phase start points."""

    name = "startpoint"

    def __init__(self) -> None:
        self._available = ResourceSet.empty()

    def observe_resources(self, resources: ResourceSet, now: Time) -> None:
        self._available = self._available | resources

    def decide(self, requirement: ConcurrentRequirement, now: Time) -> PolicyDecision:
        if deadline_passed(requirement, now):
            return PolicyDecision(False, reason="deadline already passed")
        start = max(requirement.start, now)
        for component in requirement.components:
            phases = component.phases
            span = component.deadline - start
            if span <= 0:
                return PolicyDecision(False, reason="window already closed")
            slot = exact_div(span, len(phases))
            for index, demands in enumerate(phases):
                instant = start + slot * index
                required_rate_scale = slot
                for ltype, quantity in demands.items():
                    have = self._available.rate_at(ltype, instant)
                    need = exact_div(quantity, required_rate_scale)
                    if have < need:
                        return PolicyDecision(
                            False,
                            reason=(
                                f"rate of {ltype} at t={instant} is {have}, "
                                f"phase needs {need}"
                            ),
                        )
        return PolicyDecision(True)
