"""Seeded, jittered, capped exponential backoff — shared by everyone.

Three subsystems space repeated attempts: the retry baseline re-offers
rejected arrivals (:mod:`repro.baselines.retry`), the recovery pipeline
re-admits promise-violation victims (:mod:`repro.faults.recovery`), and
the service front door's circuit breakers probe isolated enclaves
(:mod:`repro.service.breaker`).  All three need the same two properties:

* **capped exponential growth** — ``min(cap, base * factor**attempt)``,
  so repeated failures space out without unbounded waits, and
* **deterministic jitter** — real systems jitter backoff to break
  thundering herds, but a shared ``random.Random`` would make delays
  depend on *which other user drew from the stream first*.  Replayable
  experiments cannot tolerate that: resuming a crashed run mid-backoff,
  or reordering two independent breakers, must never change any delay.

:class:`Backoff` therefore derives each jitter draw *statelessly* from
``(seed, key, attempt)`` through SHA-256 — no stream, no shared cursor,
no ordering sensitivity.  Two breakers keyed by their enclave names get
independent, stable jitter ladders from one configured seed; calling
``delay`` twice, or from concurrently-progressing users in any
interleaving, always returns the same value.  (Python's builtin ``hash``
is process-salted and thus useless here; the digest path is the point.)

Arithmetic stays exact: jitter factors are :class:`~fractions.Fraction`
values, so integral grids survive where they can and every delay is a
deterministic exact number, never a platform-dependent float dance.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Real

from repro.errors import RecoveryError

#: Resolution of one jitter draw: the first 8 digest bytes, uniform on
#: ``[0, 1)`` in steps of ``2**-64`` — far below any scheduling grid.
_JITTER_DENOMINATOR = 1 << 64


@dataclass(frozen=True)
class Backoff:
    """Capped exponential delays with stateless, seeded jitter.

    ``delay(attempt)`` is ``min(cap, base * factor**attempt)``; with
    ``jitter > 0`` the capped value is scaled by a deterministic factor
    in ``[1 - jitter, 1 + jitter)`` drawn from ``(seed, key, attempt)``
    and clamped back into ``[base, cap]`` so the schedule never waits
    less than ``base`` nor longer than ``cap``.

    ``attempt`` counts completed attempts, so the first re-offer waits
    ``~base`` and each failure multiplies the wait, up to ``cap``.
    """

    base: float = 1
    factor: float = 2.0
    cap: float = 16
    #: relative jitter amplitude in ``[0, 1)``; 0 = the classic
    #: deterministic ladder (bit-compatible with the PR-1 behaviour)
    jitter: float = 0.0
    #: seed of the jitter derivation; users sharing one configured seed
    #: stay independent through their ``key``
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("base", "factor", "cap", "jitter"):
            value = getattr(self, name)
            if (
                isinstance(value, bool)
                or not isinstance(value, Real)
                or (isinstance(value, float) and not math.isfinite(value))
            ):
                raise RecoveryError(
                    f"backoff {name} must be a finite number, got {value!r}"
                )
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise RecoveryError(
                f"backoff seed must be an integer, got {self.seed!r}"
            )
        if self.base <= 0 or self.cap < self.base or self.factor < 1:
            raise RecoveryError(
                f"invalid backoff: base={self.base!r} factor={self.factor!r} "
                f"cap={self.cap!r} (need base > 0, cap >= base, factor >= 1)"
            )
        if not 0 <= self.jitter < 1:
            raise RecoveryError(
                f"backoff jitter must lie in [0, 1), got {self.jitter!r}"
            )

    # ------------------------------------------------------------------
    def delay(self, attempt: int, key: str = ""):
        """Delay before re-offer number ``attempt + 1``.

        ``key`` names the independent user of this schedule (an enclave,
        a victim label); it feeds the jitter derivation only, so distinct
        keys draw independent jitter while the undjittered ladder is
        shared.  The result is a pure function of
        ``(config, attempt, key)`` — no internal state advances.
        """
        if attempt < 0:
            raise RecoveryError(f"attempt must be non-negative, got {attempt}")
        raw = self.base * (self.factor ** attempt)
        if raw >= float(self.cap):
            capped = self.cap
        else:
            # Keep integral delays integral so event times stay on the grid.
            capped = type(self.base)(raw) if raw == int(raw) else raw
        if not self.jitter:
            return capped
        spread = Fraction(self.jitter).limit_denominator(10_000)
        # factor in [1 - jitter, 1 + jitter), exactly and statelessly
        scale = 1 - spread + 2 * spread * self._draw(attempt, key)
        jittered = Fraction(capped) * scale
        lo, hi = Fraction(self.base), Fraction(self.cap)
        if jittered < lo:
            jittered = lo
        elif jittered > hi:
            jittered = hi
        return int(jittered) if jittered.denominator == 1 else jittered

    def _draw(self, attempt: int, key: str) -> Fraction:
        """One uniform draw on ``[0, 1)`` from ``(seed, key, attempt)``.

        SHA-256, not ``hash()``: the builtin is salted per process, and
        a shared ``random.Random`` stream would couple callers through
        draw order — both would break replay.
        """
        digest = hashlib.sha256(
            f"{self.seed}:{key}:{attempt}".encode()
        ).digest()
        return Fraction(
            int.from_bytes(digest[:8], "big"), _JITTER_DENOMINATOR
        )
