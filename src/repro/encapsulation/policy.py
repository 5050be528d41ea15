"""An enclave hierarchy as a simulator admission policy.

Bridges :mod:`repro.encapsulation` into the open-system simulator: the
policy owns an enclave tree, routes each arrival to an enclave (custom
router, or hierarchy search by default), and lets the enclave's own
controller decide.  Joining resources grow the *root*; children keep
their original allotments (a provider absorbing new capacity at the top).

This makes the E11 confinement claim testable end to end: a partitioned
system runs the same event streams as a flat one and must keep ROTA's
zero-miss guarantee inside every enclave.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.baselines.base import AdmissionPolicy, PolicyDecision, arrival_label
from repro.computation.requirements import ConcurrentRequirement
from repro.encapsulation.enclave import Enclave
from repro.intervals.interval import Time
from repro.resources.resource_set import ResourceSet

#: Routes an arrival to the enclave that should consider it (or None to
#: fall back to hierarchy-wide search).
Router = Callable[[ConcurrentRequirement], Optional[Enclave]]


class EnclaveAdmission(AdmissionPolicy):
    """Admission through a CyberOrgs-style enclave hierarchy."""

    name = "enclave"

    def __init__(self, root: Enclave, *, router: Router | None = None) -> None:
        self._root = root
        self._router = router
        self._placements: Dict[str, str] = {}

    @property
    def root(self) -> Enclave:
        return self._root

    def placement_of(self, label: str) -> Optional[str]:
        """Which enclave admitted the labelled arrival (None = rejected)."""
        return self._placements.get(label)

    def observe_resources(self, resources: ResourceSet, now: Time) -> None:
        self._root.controller.advance_to(now)
        self._root.controller.add_resources(resources)

    def decide(self, requirement: ConcurrentRequirement, now: Time) -> PolicyDecision:
        for enclave in self._root.walk():
            enclave.controller.advance_to(now)
        target: Optional[Enclave] = None
        if self._router is not None:
            target = self._router(requirement)
        if target is not None:
            decision = target.admit(requirement)
            admitted_in = target if decision.admitted else None
        else:
            admitted_in = self._root.admit_anywhere(requirement)
            decision = None
        if admitted_in is None:
            return PolicyDecision(
                False, reason="no enclave can assure the deadline"
            )
        label = arrival_label(requirement)
        self._placements[label] = admitted_in.name
        schedule = (
            decision.schedule
            if decision is not None
            else admitted_in.controller.schedule_of(
                admitted_in.controller.admitted_labels[-1]
            )
        )
        return PolicyDecision(True, schedule=schedule)
