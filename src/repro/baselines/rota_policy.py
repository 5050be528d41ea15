"""ROTA admission as a policy: the paper's contribution, pluggable.

Wraps :class:`repro.decision.admission.AdmissionController` (Theorem 4's
expiring-slack reasoning) behind the shared
:class:`~repro.baselines.base.AdmissionPolicy` interface, so it can be
raced head-to-head against the related-work baselines on identical event
streams.

Soundness property (checked by integration tests and the accuracy
benchmark): a computation this policy admits never misses its deadline,
provided the simulator executes with a reservation-following or
work-conserving allocation over the committed claims.
"""

from __future__ import annotations

from repro.baselines.base import AdmissionPolicy, PolicyDecision
from repro.computation.requirements import ConcurrentRequirement
from repro.decision.admission import AdmissionController
from repro.errors import TransitionError
from repro.intervals.interval import Time
from repro.resources.resource_set import ResourceSet


class RotaAdmission(AdmissionPolicy):
    """Theorem 4 admission: check newcomers against expiring slack."""

    name = "rota"

    def __init__(self, *, exhaustive: bool = False, align: Time | None = 1) -> None:
        # ``align`` defaults to the simulator's standard slice of 1 so the
        # committed witnesses are executable by a slice-atomic scheduler;
        # pass None for exact (continuous-time) admission.
        self._controller = AdmissionController(align=align)
        self._exhaustive = exhaustive

    @property
    def controller(self) -> AdmissionController:
        """The underlying controller (exposed for inspection in tests)."""
        return self._controller

    def observe_resources(self, resources: ResourceSet, now: Time) -> None:
        self._controller.advance_to(now)
        self._controller.add_resources(resources)

    def decide(self, requirement: ConcurrentRequirement, now: Time) -> PolicyDecision:
        self._controller.advance_to(now)
        decision = self._controller.admit(requirement, exhaustive=self._exhaustive)
        if decision.admitted:
            return PolicyDecision(True, schedule=decision.schedule)
        return PolicyDecision(False, reason=decision.reason)

    def on_leave(self, label: str, now: Time) -> None:
        self._controller.advance_to(now)
        try:
            self._controller.withdraw(label)
        except TransitionError:
            # The simulator already validated the leave rule; a label the
            # controller tracked under a different key is not an error.
            pass

    def observe_loss(self, lost: ResourceSet, now: Time) -> None:
        self._controller.advance_to(now)
        self._controller.revoke_resources(lost)

    def forfeit(self, label: str, now: Time) -> None:
        self._controller.advance_to(now)
        try:
            self._controller.forfeit(label)
        except TransitionError:
            # A victim admitted by a wrapped/aliased label may be tracked
            # under a different key; eviction is best-effort by design.
            pass
