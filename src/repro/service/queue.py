"""Virtual-time queue bookkeeping for the admission front door.

The front door never sleeps: queueing is modelled with a virtual service
clock (``busy_until``) advanced by deterministic per-check costs.  An
arrival at ``t`` that finds the clock at ``busy_until > t`` waits
``busy_until - t`` — in *simulated* time, the same units as requirement
windows, so the wait can be charged against the arrival's own deadline
by window clipping.  No wall clock anywhere; two runs with the same
inputs see the same waits.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from typing import Deque

from repro.intervals.interval import Time


class LatencyEwma:
    """Exact exponentially-weighted moving average of check costs.

    ``alpha`` and every observation are rationals, so the estimate — and
    every shedding decision derived from it — is exact and replayable.
    The initial value seeds the estimate with the configured nominal
    check cost; the first real observation pulls it toward reality.
    """

    __slots__ = ("_alpha", "_value", "_observations")

    def __init__(self, alpha: Fraction, initial: Time) -> None:
        self._alpha = Fraction(alpha)
        self._value: Fraction = Fraction(initial)
        self._observations = 0

    @property
    def value(self) -> Fraction:
        return self._value

    @property
    def observations(self) -> int:
        return self._observations

    def observe(self, cost: Time) -> Fraction:
        """Fold one check cost into the estimate.

        A cost equal to the estimate leaves it as it is: ``alpha * v +
        (1 - alpha) * v == v`` exactly for rationals, so a nominal check
        against a settled estimate costs a comparison, not two
        ``Fraction`` products (:func:`_reference_ewma_update` is the
        update in full)."""
        if cost != self._value:
            self._value = self._alpha * Fraction(cost) + (1 - self._alpha) * self._value
        self._observations += 1
        return self._value


def _reference_ewma_update(alpha: Fraction, value: Fraction, cost: Time) -> Fraction:
    """The EWMA update in full, on every observation: the oracle
    :meth:`LatencyEwma.observe` is pinned to."""
    return alpha * Fraction(cost) + (1 - alpha) * value


class EnclaveLane:
    """One enclave's bounded share of the front door's queue.

    The service clock is global (there is one controller); the lane
    tracks only *this* enclave's outstanding check completions, so a
    flooding enclave exhausts its own bound and gets shed while quieter
    enclaves keep their slots — queue-level isolation, complementing the
    breaker's failure isolation.
    """

    __slots__ = ("enclave", "max_queue", "_completions")

    def __init__(self, enclave: str, max_queue: int) -> None:
        self.enclave = enclave
        self.max_queue = max_queue
        self._completions: Deque[Time] = deque()

    @property
    def depth(self) -> int:
        """Checks accepted but not yet completed (in virtual time)."""
        return len(self._completions)

    @property
    def full(self) -> bool:
        return len(self._completions) >= self.max_queue

    def push(self, completion: Time) -> None:
        self._completions.append(completion)

    def drain(self, now: Time) -> int:
        """Retire completions at or before ``now``; returns how many."""
        drained = 0
        while self._completions and self._completions[0] <= now:
            self._completions.popleft()
            drained += 1
        return drained
