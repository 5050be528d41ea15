"""Per-enclave circuit breakers for the admission front door.

A *stalled* enclave — checks against it taking an order of magnitude
longer than nominal — is the service-level analogue of the paper's
unannounced resource faults: left alone, one sick enclave's slow checks
eat the whole controller's capacity and every enclave's arrivals pay the
queueing delay.  The breaker walls it off: after ``failures``
consecutive slow checks the enclave goes *open* (arrivals shed
instantly, joins refused), re-probed on a capped seeded-jitter backoff
schedule (*half-open*), and closed again after ``probes`` consecutive
fast checks.

Determinism: the backoff jitter is the stateless seeded kind
(:class:`repro.backoff.Backoff`), keyed by enclave name — concurrent
breakers never share an RNG stream, so the open/half-open timeline of
one enclave is independent of how many others are tripping.
"""

from __future__ import annotations

from typing import Optional

from repro.backoff import Backoff
from repro.intervals.interval import Time


class BreakerState:
    """The classic three states, as string constants (picklable, and
    stable in decision logs)."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"


class CircuitBreaker:
    """One enclave's breaker; transitions driven by deterministic check
    costs, never wall-clock timeouts."""

    __slots__ = (
        "enclave",
        "_failure_threshold",
        "_probe_target",
        "_backoff",
        "state",
        "_consecutive_failures",
        "_probe_successes",
        "_open_attempt",
        "_retry_at",
        "transitions",
    )

    def __init__(
        self,
        enclave: str,
        *,
        failures: int,
        probes: int,
        backoff: Backoff,
    ) -> None:
        self.enclave = enclave
        self._failure_threshold = failures
        self._probe_target = probes
        self._backoff = backoff
        self.state = BreakerState.CLOSED
        self._consecutive_failures = 0
        self._probe_successes = 0
        #: how many times this breaker has opened since last closing —
        #: the backoff attempt counter, so repeated re-trips back off
        #: further and further (capped).
        self._open_attempt = 0
        self._retry_at: Optional[Time] = None
        #: ``(time, from, to)`` transition log, for reports and tests.
        self.transitions: list[tuple[Time, str, str]] = []

    # ------------------------------------------------------------------
    def accepting(self, now: Time) -> bool:
        """Read-only: would a request (or a resource join) get through?

        Open breakers refuse everything until their backoff elapses;
        half-open breakers accept (that *is* the probe).  Unlike
        :meth:`allow`, this never transitions state — resource-join
        screening must not consume probe slots.
        """
        if self.state == BreakerState.OPEN:
            return self._retry_at is not None and now >= self._retry_at
        return True

    def allow(self, now: Time) -> bool:
        """Gate one request at ``now``; open -> half-open when the
        backoff has elapsed."""
        if self.state == BreakerState.OPEN:
            if self._retry_at is None or now < self._retry_at:
                return False
            self._transition(now, BreakerState.HALF_OPEN)
            self._probe_successes = 0
        return True

    # ------------------------------------------------------------------
    def record_success(self, now: Time) -> None:
        """A check against this enclave completed at nominal cost."""
        if self.state == BreakerState.HALF_OPEN:
            self._probe_successes += 1
            if self._probe_successes >= self._probe_target:
                self._transition(now, BreakerState.CLOSED)
                self._open_attempt = 0
                self._retry_at = None
        self._consecutive_failures = 0

    def record_failure(self, now: Time) -> None:
        """A check against this enclave ran slow (stall signature)."""
        if self.state == BreakerState.HALF_OPEN:
            # A failed probe re-opens immediately, with a longer backoff.
            self._open(now)
            return
        self._consecutive_failures += 1
        if (
            self.state == BreakerState.CLOSED
            and self._consecutive_failures >= self._failure_threshold
        ):
            self._open(now)

    # ------------------------------------------------------------------
    def _open(self, now: Time) -> None:
        self._transition(now, BreakerState.OPEN)
        self._retry_at = now + self._backoff.delay(
            self._open_attempt, key=self.enclave
        )
        self._open_attempt += 1
        self._consecutive_failures = 0
        self._probe_successes = 0

    def _transition(self, now: Time, to: str) -> None:
        if to != self.state:
            self.transitions.append((now, self.state, to))
            self.state = to
