"""Front-door configuration: every overload-protection knob in one place.

All durations are *simulated* time in the same units as requirement
windows (never wall-clock seconds): the front door models the admission
service's own capacity with a virtual clock, which is what makes every
shed and breaker decision replayable bit-for-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from numbers import Rational
from typing import Any, Mapping, Optional

from repro.backoff import Backoff
from repro.errors import RecoveryError, ServiceConfigError
from repro.intervals.interval import Time

#: Recognised load-shedding policies.
#:
#: * ``"deadline"`` — deadline-aware: estimate queueing delay from the
#:   live check-latency EWMA and shed arrivals whose remaining slack
#:   cannot survive it (on enqueue *and* again on dequeue, where the
#:   delay is no longer an estimate).
#: * ``"tail-drop"`` — the classic baseline: shed only when the
#:   enclave's queue is full, regardless of deadlines.
SHED_POLICIES = ("deadline", "tail-drop")

#: Simulated cost of the conservative Theorem-1 screen; ``check_cost``
#: may not undercut it (the screen is the cheap path).
SCREEN_COST: Time = Fraction(1, 50)
#: EWMA smoothing factor for the live check-latency estimate.
EWMA_ALPHA = Fraction(1, 4)
#: A check costing at least this multiple of ``check_cost`` counts as a
#: breaker failure (stall detection).
SLOW_CHECK_FACTOR = 8
#: An arrival is low-criticality (brownout-degradable) when its remaining
#: window exceeds this multiple of the estimated wait-plus-check time: it
#: can afford to be deferred.
CRITICALITY_LAXITY = 4


def _as_exact(name: str, value: Any) -> Time:
    """Coerce a config duration to exact arithmetic (int or Fraction).

    Floats are accepted at the boundary (JSON has no rationals) but are
    converted immediately so the virtual clock never accumulates binary
    rounding — the same discipline the resource algebra enforces.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float, Rational)):
        raise ServiceConfigError(
            f"{name} must be a number, got {type(value).__name__}"
        )
    if isinstance(value, float) and not math.isfinite(value):
        raise ServiceConfigError(f"{name} must be finite, got {value!r}")
    if isinstance(value, int):
        return value
    exact = Fraction(value).limit_denominator(1_000_000)
    return int(exact) if exact.denominator == 1 else exact


def _require_int(name: str, value: Any, minimum: int) -> None:
    """Integer knobs are counts: ``bool`` is not one, whatever Python's
    ``isinstance(True, int)`` says."""
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ServiceConfigError(
            f"{name} must be an integer >= {minimum}, got {value!r}"
        )


@dataclass(frozen=True)
class ServiceConfig:
    """Knobs for :class:`repro.service.AdmissionFrontDoor`.

    Defaults model a controller whose exact Theorem-4 check costs 1/4 of
    a time unit, degrading to a 1/50-unit Theorem-1 screen under
    brownout, with queues bounded at 64 per enclave.
    """

    #: Per-enclave queue bound; arrivals beyond it are shed (tail drop).
    max_queue: int = 64
    #: One of :data:`SHED_POLICIES`.
    shed_policy: str = "deadline"
    #: Simulated cost of one exact Theorem-4 admission check.
    check_cost: Time = Fraction(1, 4)
    #: Simulated cost of a check against a *stalled* enclave (the fault
    #: the circuit breaker exists to wall off).
    stall_cost: Time = 8
    #: Queue depth (across all lanes) at or above which brownout engages.
    brownout_enter: int = 48
    #: Depth at or below which brownout disengages; must be < enter
    #: (hysteresis, so the mode does not flap at the boundary).
    brownout_exit: int = 16
    #: Optional latency trigger: brownout also engages while the check
    #: EWMA is at or above this (``None`` disables the latency trigger).
    brownout_latency: Optional[Time] = None
    #: Consecutive slow/failed checks that open an enclave's breaker.
    breaker_failures: int = 3
    #: Successful half-open probes required to close it again.
    breaker_probes: int = 2
    #: Open -> half-open retry schedule (seeded jitter, keyed per
    #: enclave, so concurrent breakers never share an RNG stream).
    backoff: Backoff = field(
        default_factory=lambda: Backoff(base=4, cap=64, jitter=0.25)
    )
    #: Seed folded into breaker backoff jitter and the decision-log
    #: fingerprint; fixing it fixes every decision byte-for-byte.
    seed: int = 0

    def __post_init__(self) -> None:
        _require_int("max_queue", self.max_queue, 1)
        if self.shed_policy not in SHED_POLICIES:
            raise ServiceConfigError(
                f"unknown shed policy {self.shed_policy!r}; "
                f"expected one of {SHED_POLICIES}"
            )
        object.__setattr__(self, "check_cost", _as_exact("check_cost", self.check_cost))
        object.__setattr__(self, "stall_cost", _as_exact("stall_cost", self.stall_cost))
        if self.check_cost < SCREEN_COST:
            raise ServiceConfigError(
                f"check_cost must be >= the screen cost {SCREEN_COST}: the "
                f"screen is the cheap path, got {self.check_cost!r}"
            )
        if self.stall_cost < self.check_cost:
            raise ServiceConfigError(
                f"stall_cost must be >= check_cost, got {self.stall_cost!r}"
            )
        _require_int("brownout_enter", self.brownout_enter, 0)
        _require_int("brownout_exit", self.brownout_exit, 0)
        if not self.brownout_exit < self.brownout_enter:
            raise ServiceConfigError(
                "brownout thresholds must satisfy exit < enter (hysteresis), "
                f"got exit={self.brownout_exit!r} enter={self.brownout_enter!r}"
            )
        if self.brownout_latency is not None:
            latency = _as_exact("brownout_latency", self.brownout_latency)
            if latency <= 0:
                raise ServiceConfigError(
                    f"brownout_latency must be > 0, got {self.brownout_latency!r}"
                )
            object.__setattr__(self, "brownout_latency", latency)
        _require_int("breaker_failures", self.breaker_failures, 1)
        _require_int("breaker_probes", self.breaker_probes, 1)
        if not isinstance(self.backoff, Backoff):
            raise ServiceConfigError(
                f"backoff must be a Backoff, got {type(self.backoff).__name__}"
            )
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise ServiceConfigError(f"seed must be an integer, got {self.seed!r}")

    @property
    def slow_threshold(self) -> Time:
        """Check cost at or above which the breaker counts a failure."""
        return self.check_cost * SLOW_CHECK_FACTOR

    # ------------------------------------------------------------------
    @classmethod
    def from_document(cls, fields: Mapping[str, Any]) -> "ServiceConfig":
        """Build from a JSON-shaped mapping (the spec-linter entry point).

        ``backoff`` may be given as a nested mapping of
        :class:`~repro.backoff.Backoff` fields.  Unknown keys raise
        :class:`~repro.errors.ServiceConfigError` — a typo in an overload
        experiment's config silently changes which work gets refused.
        """
        if not isinstance(fields, Mapping):
            raise ServiceConfigError(
                f"service config must be a mapping, got {type(fields).__name__}"
            )
        known = {f for f in cls.__dataclass_fields__}
        unknown = [key for key in fields if key not in known]
        if unknown:
            raise ServiceConfigError(
                f"unknown service config keys: {', '.join(sorted(unknown))}"
            )
        kwargs = dict(fields)
        backoff = kwargs.get("backoff")
        if isinstance(backoff, Mapping):
            backoff_known = {f for f in Backoff.__dataclass_fields__}
            backoff_unknown = [key for key in backoff if key not in backoff_known]
            if backoff_unknown:
                raise ServiceConfigError(
                    "unknown backoff keys: "
                    + ", ".join(sorted(backoff_unknown))
                )
            try:
                kwargs["backoff"] = Backoff(**backoff)
            except (TypeError, RecoveryError) as exc:
                raise ServiceConfigError(f"bad backoff config: {exc}") from exc
        try:
            return cls(**kwargs)
        except TypeError as exc:
            raise ServiceConfigError(f"bad service config: {exc}") from exc
