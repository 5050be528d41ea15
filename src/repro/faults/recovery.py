"""The promise-violation recovery pipeline's configuration.

When detection (:mod:`repro.faults.detection`) declares a victim, the
simulator routes it through a :class:`RecoveryPolicy`:

1. **eviction** — the victim leaves ``rho``; its admission commitment is
   forfeited so the freed slack is visible to everyone;
2. **re-admission** — the residual requirement (remaining phases,
   re-windowed to ``(now, deadline)``) is re-offered to the same
   admission policy, i.e. through the same Theorem-4 check that made the
   original promise, now against *surviving* resources;
3. **backoff** — rejected re-offers repeat on a capped exponential
   schedule (:class:`repro.baselines.retry.ExponentialBackoff`,
   generalized from the retry baseline) until the attempt budget or the
   deadline runs out;
4. **graceful degradation** — a victim that cannot be re-placed ends in
   an explicit ``abandoned`` outcome with salvage accounting for the work
   it already consumed, never a crash or a stuck record.

The policy object is deliberately pure configuration: all mechanism lives
in the simulator so recovery replays deterministically with the event
stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.baselines.retry import ExponentialBackoff
from repro.errors import RecoveryError
from repro.intervals.interval import Time
from repro.observability import get_registry

#: Backoff delays are simulation-time units (powers of the backoff base),
#: not wall seconds; bucket on the exponential ladder.
_BACKOFF_BUCKETS = (0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)

#: The first re-offer is made at detection time, before any backoff
#: delay: the fault that hurt this victim may have spared slack elsewhere.
#: Only later offers wait on :meth:`RecoveryPolicy.next_offer_delay`.
IMMEDIATE_FIRST_OFFER = True


@dataclass(frozen=True)
class RecoveryPolicy:
    """How hard, and how patiently, to fight for a violated promise."""

    #: maximum re-admission offers per violation before abandoning
    max_attempts: int = 4
    #: delay schedule between consecutive re-offers
    backoff: ExponentialBackoff = field(default_factory=ExponentialBackoff)

    def __post_init__(self) -> None:
        attempts = self.max_attempts
        if (
            isinstance(attempts, bool)
            or not isinstance(attempts, int)
            or attempts < 1
        ):
            raise RecoveryError(
                f"max_attempts must be an integer >= 1, got {attempts!r}"
            )

    def next_offer_delay(self, attempts_done: int) -> Time:
        """Delay until the next re-offer after ``attempts_done`` failures."""
        delay = self.backoff.delay(max(0, attempts_done - 1))
        registry = get_registry()
        if registry.enabled:
            registry.histogram(
                "recovery_backoff_delay",
                "scheduled re-offer backoff delays (simulation-time units)",
                buckets=_BACKOFF_BUCKETS,
            ).observe(float(delay))
        return delay
