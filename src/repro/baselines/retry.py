"""Retrying admission: rejected computations watch for new frontiers.

The paper's introduction: "The dynamicity that makes opportunities
visible at runtime also leads to uncertainty ... Meeting these challenges
can be helped by computations' ability to reason about future
availability of resources" — and its conclusion pictures computations
that keep "searching for resources before giving up".

:class:`RetryingPolicy` wraps any admission policy with a retry queue: an
arrival the inner policy rejects is remembered and re-offered every time
resources join, until its deadline passes (or a retry budget runs out).
Wrapped around ROTA, rejections stop being final verdicts and become
"not with what I can see today" — admissions arrive late but remain fully
assured, because every retry goes through the same Theorem 4 check.

:class:`ExponentialBackoff` generalizes the retry cadence: instead of
re-offering on *every* new frontier, attempts are spaced by a capped
exponential delay.  The fault-recovery pipeline
(:mod:`repro.faults.recovery`) reuses the same schedule between
re-admission offers for promise-violation victims.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.backoff import Backoff
from repro.baselines.base import AdmissionPolicy, PolicyDecision, arrival_label
from repro.computation.requirements import ConcurrentRequirement
from repro.intervals.interval import Time
from repro.resources.resource_set import ResourceSet


@dataclass(frozen=True)
class ExponentialBackoff(Backoff):
    """The shared :class:`repro.backoff.Backoff` under its historical
    name, jitter off by default: ``min(cap, base * factor**attempt)``.

    ``attempt`` counts completed attempts, so the first re-offer waits
    ``base`` and each rejection doubles (by default) the wait, up to
    ``cap``.  Deterministic on purpose: fault experiments must replay
    bit-identically — and when jitter *is* enabled, it is the stateless
    seeded kind, never a shared RNG stream.
    """


@dataclass
class _Pending:
    label: str
    requirement: ConcurrentRequirement
    attempts: int = 0
    #: earliest time the next re-offer may happen (backoff gating)
    eligible_at: Time = 0


class RetryingPolicy(AdmissionPolicy):
    """Wrap an admission policy with a bounded, optionally backed-off
    retry queue."""

    def __init__(
        self,
        inner: AdmissionPolicy,
        *,
        max_retries: int = 10,
        backoff: ExponentialBackoff | None = None,
    ) -> None:
        self._inner = inner
        self._max_retries = max_retries
        self._backoff = backoff
        self._pending: Dict[str, _Pending] = {}
        self.name = f"{inner.name}+retry"
        #: labels admitted on a retry rather than on first offer
        self.late_admissions: List[str] = []

    @property
    def inner(self) -> AdmissionPolicy:
        return self._inner

    @property
    def pending_labels(self) -> tuple[str, ...]:
        return tuple(self._pending)

    # ------------------------------------------------------------------
    def observe_resources(self, resources: ResourceSet, now: Time) -> None:
        self._inner.observe_resources(resources, now)

    def decide(self, requirement: ConcurrentRequirement, now: Time) -> PolicyDecision:
        decision = self._inner.decide(requirement, now)
        if not decision.admitted and requirement.deadline > now:
            label = arrival_label(requirement)
            if label in self._pending:
                # a retry round: count the attempt, push out the next one
                pending = self._pending[label]
                pending.attempts += 1
                if pending.attempts >= self._max_retries:
                    del self._pending[label]
                elif self._backoff is not None:
                    pending.eligible_at = now + self._backoff.delay(
                        pending.attempts
                    )
            else:
                self._pending[label] = _Pending(label, requirement)
        elif decision.admitted:
            label = arrival_label(requirement)
            if label in self._pending:
                del self._pending[label]
                self.late_admissions.append(label)
        return decision

    def on_leave(self, label: str, now: Time) -> None:
        self._inner.on_leave(label, now)

    def on_settle(self, label: str) -> None:
        self._inner.on_settle(label)

    def observe_loss(self, lost: ResourceSet, now: Time) -> None:
        self._inner.observe_loss(lost, now)

    def forfeit(self, label: str, now: Time) -> None:
        self._inner.forfeit(label, now)

    def retry_candidates(
        self, now: Time
    ) -> list[Tuple[str, ConcurrentRequirement]]:
        expired = [
            label
            for label, pending in self._pending.items()
            if pending.requirement.deadline <= now
        ]
        for label in expired:
            del self._pending[label]
        return [
            (pending.label, pending.requirement)
            for pending in self._pending.values()
            if pending.eligible_at <= now
        ]
