"""An enclave hierarchy as a simulator admission policy.

Bridges :mod:`repro.encapsulation` into the open-system simulator: the
policy owns an enclave tree, searches the hierarchy for an enclave that
can take each arrival, and lets that enclave's own controller decide.
Joining resources grow the *root*; children keep their original
allotments (a provider absorbing new capacity at the top).

This makes the E11 confinement claim testable end to end: a partitioned
system runs the same event streams as a flat one and must keep ROTA's
zero-miss guarantee inside every enclave.
"""

from __future__ import annotations

from repro.baselines.base import AdmissionPolicy, PolicyDecision
from repro.computation.requirements import ConcurrentRequirement
from repro.encapsulation.enclave import Enclave
from repro.intervals.interval import Time
from repro.resources.resource_set import ResourceSet


class EnclaveAdmission(AdmissionPolicy):
    """Admission through a CyberOrgs-style enclave hierarchy."""

    name = "enclave"

    def __init__(self, root: Enclave) -> None:
        self._root = root

    @property
    def root(self) -> Enclave:
        return self._root

    def observe_resources(self, resources: ResourceSet, now: Time) -> None:
        self._root.controller.advance_to(now)
        self._root.controller.add_resources(resources)

    def decide(self, requirement: ConcurrentRequirement, now: Time) -> PolicyDecision:
        for enclave in self._root.walk():
            enclave.controller.advance_to(now)
        admitted_in = self._root.admit_anywhere(requirement)
        if admitted_in is None:
            return PolicyDecision(
                False, reason="no enclave can assure the deadline"
            )
        controller = admitted_in.controller
        return PolicyDecision(
            True, schedule=controller.schedule_of(controller.admitted_labels[-1])
        )
