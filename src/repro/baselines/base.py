"""Admission-policy interface shared by ROTA and the baselines.

The paper's thesis is that reasoning about *future* resource availability
— not just instantaneous capacity or aggregate totals — is what makes
deadline assurance possible.  To make that claim measurable, every
admission approach (ROTA's and the related-work stand-ins) implements the
same small interface; the simulator feeds them identical event streams and
scores the outcomes.

A policy is *stateful*: it learns about resources as they join and about
its own earlier admissions, exactly like a real controller embedded in an
open system.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, Optional

from repro.computation.requirements import ConcurrentRequirement
from repro.decision.schedule import ConcurrentSchedule
from repro.intervals.interval import Time
from repro.resources.resource_set import ResourceSet


@dataclass(frozen=True)
class PolicyDecision:
    """Admit/reject, optionally with a witness schedule (ROTA only)."""

    admitted: bool
    reason: str = ""
    schedule: Optional[ConcurrentSchedule] = None

    def __bool__(self) -> bool:
        return self.admitted


def arrival_label(requirement: ConcurrentRequirement) -> str:
    """The arrival a requirement belongs to: its first component's label
    without the ``[index]`` suffix a multi-component arrival carries, or
    ``"arrival"`` when it is unnamed."""
    return requirement.components[0].label.split("[")[0] or "arrival"


class AdmissionPolicy(abc.ABC):
    """Stateful admission controller fed by the simulator."""

    #: Short name used in reports and benchmark tables.
    name: str = "policy"

    @abc.abstractmethod
    def observe_resources(self, resources: ResourceSet, now: Time) -> None:
        """Resources joined the system at ``now``."""

    @abc.abstractmethod
    def decide(self, requirement: ConcurrentRequirement, now: Time) -> PolicyDecision:
        """Admit or reject an arrival; on admit, the policy must account
        for the commitment in its own state."""

    def on_leave(self, label: str, now: Time) -> None:
        """An admitted computation withdrew before starting (optional)."""

    def on_settle(self, label: str) -> None:
        """The record under ``label`` reached its outcome or withdrew
        (optional): no decision names it again, so a policy indexing its
        admissions by label may drop the entry."""

    def observe_loss(self, lost: ResourceSet, now: Time) -> None:
        """Capacity vanished unannounced at ``now`` (optional).

        Only called by fault-aware simulations running a recovery
        pipeline: honest recovery re-admits against *surviving* resources,
        so the policy's availability view must shrink.  Fault runs without
        recovery deliberately leave policies blind — measuring what the
        pre-declared-leave assumption is worth is their whole point.
        """

    def forfeit(self, label: str, now: Time) -> None:
        """An admitted computation's promise was violated (optional).

        The simulator evicted it; policies tracking commitments should
        release the victim's claims so re-admission sees the freed slack.
        """

    def admit_resources(self, resources: ResourceSet, now: Time) -> ResourceSet:
        """Screen a resource join before the system acquires it (optional).

        Returns the accepted part; anything withheld is recorded by the
        simulator as *shed* capacity — the ``+ shed`` leg of the extended
        conservation identity.  The default accepts everything; the
        service front door (:class:`repro.service.FrontDoorPolicy`)
        overrides this to wall off joins from enclaves whose circuit
        breaker is open.
        """
        return resources

    def retry_candidates(
        self, now: Time
    ) -> list[tuple[str, ConcurrentRequirement]]:
        """Previously rejected arrivals worth re-deciding now (optional).

        Called by the simulator after resources join.  Policies that keep
        a retry queue (see :class:`repro.baselines.retry.RetryingPolicy`)
        return ``(label, requirement)`` pairs; each is re-offered through
        :meth:`decide` and, on success, accommodated late — the paper's
        computations "seeking out new frontiers" as opportunity appears.
        """
        return []

    def fingerprint_fields(self) -> Dict[str, str]:
        """Replay state the policy keeps beyond the report (optional).

        :func:`repro.faults.chaos.report_fingerprint` merges these fields
        into a run's fingerprint, so two runs are the same run only if
        this state agrees too.  The default adds nothing; the mesh adds
        its wire state and the front door its decision log."""
        return {}
