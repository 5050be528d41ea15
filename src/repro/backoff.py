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

Arithmetic stays exact and integral on the hot path: a draw is a raw
integer on ``[0, 2**64)``, each rung of the ladder is turned into exact
integer terms once per configuration and attempt, and the jittered delay
is one :class:`~fractions.Fraction` built from integers.  Integral grids
survive where they can and every delay is a deterministic exact number,
never a platform-dependent float dance.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from numbers import Real
from typing import Tuple

from repro.errors import RecoveryError

#: Resolution of one jitter draw: the first 8 digest bytes, an integer
#: uniform on ``[0, 2**64)`` read as a fraction of ``2**64`` — far below
#: any scheduling grid.
_JITTER_BITS = 64


@lru_cache(maxsize=256)
def _spread(jitter) -> Tuple[int, int]:
    """The jitter amplitude as the exact ``(num, den)`` every draw scales
    by — computed once per configured value, never per delay."""
    exact = Fraction(jitter).limit_denominator(10_000)
    return exact.numerator, exact.denominator


def _ratio(value) -> Tuple[int, int]:
    """An int, float or Fraction as an exact ``(num, den)`` in lowest terms."""
    if isinstance(value, float):
        return value.as_integer_ratio()
    return int(value.numerator), int(value.denominator)


def _capped(base, factor, cap, attempt: int):
    """The unjittered ladder: ``min(cap, base * factor**attempt)``."""
    raw = base * (factor ** attempt)
    if raw >= float(cap):
        return cap
    # Keep integral delays integral so event times stay on the grid.
    return type(base)(raw) if raw == int(raw) else raw


@lru_cache(maxsize=256, typed=True)
def _rung(base, factor, cap, jitter, attempt: int):
    """``(capped, terms)`` of one ladder rung, computed once per config.

    ``terms`` is ``None`` without jitter; otherwise it is
    ``(low, scale, den, lo, hi)``: a draw ``u`` gives the jittered delay
    ``(low + scale * u) / den`` before the clamp to ``lo = base`` and
    ``hi = cap``, each an exact ``(num, den)``.  The cache is typed:
    ``1``, ``1.0`` and ``Fraction(1)`` are equal keys whose delays differ
    in type.
    """
    capped = _capped(base, factor, cap, attempt)
    if not jitter:
        return capped, None
    # capped * (1 - s + 2*s*u) with u = draw / 2**64, over integers: the
    # factor lies in [1 - jitter, 1 + jitter), exactly.
    s_num, s_den = _spread(jitter)
    c_num, c_den = _ratio(capped)
    return capped, (
        c_num * ((s_den - s_num) << _JITTER_BITS),
        c_num * 2 * s_num,
        (c_den * s_den) << _JITTER_BITS,
        _ratio(base),
        _ratio(cap),
    )


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
        if isinstance(attempt, bool) or not isinstance(attempt, int) or (
            attempt < 0
        ):
            raise RecoveryError(
                f"backoff attempt must be a non-negative int, got {attempt!r}"
            )
        capped, terms = _rung(
            self.base, self.factor, self.cap, self.jitter, attempt
        )
        if terms is None:
            return capped
        low, scale, den, (lo_num, lo_den), (hi_num, hi_den) = terms
        num = low + scale * self._draw(attempt, key)
        if num * lo_den < lo_num * den:
            num, den = lo_num, lo_den
        elif num * hi_den > hi_num * den:
            num, den = hi_num, hi_den
        jittered = Fraction(num, den)
        return jittered.numerator if jittered.denominator == 1 else jittered

    def _draw(self, attempt: int, key: str) -> int:
        """One uniform integer draw on ``[0, 2**64)`` from
        ``(seed, key, attempt)``.

        SHA-256, not ``hash()``: the builtin is salted per process, and
        a shared ``random.Random`` stream would couple callers through
        draw order — both would break replay.
        """
        digest = hashlib.sha256(
            f"{self.seed}:{key}:{attempt}".encode()
        ).digest()
        return int.from_bytes(digest[:8], "big")

    def _reference_delay(self, attempt: int, key: str = ""):
        """:meth:`delay` in plain :class:`~fractions.Fraction` arithmetic:
        the oracle the differential tests hold it to, value and type."""
        capped = _capped(self.base, self.factor, self.cap, attempt)
        if not self.jitter:
            return capped
        spread = Fraction(self.jitter).limit_denominator(10_000)
        draw = Fraction(self._draw(attempt, key), 1 << _JITTER_BITS)
        scale = 1 - spread + 2 * spread * draw
        jittered = Fraction(capped) * scale
        lo, hi = Fraction(self.base), Fraction(self.cap)
        if jittered < lo:
            jittered = lo
        elif jittered > hi:
            jittered = hi
        return int(jittered) if jittered.denominator == 1 else jittered
