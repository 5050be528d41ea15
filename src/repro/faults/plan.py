"""Seeded, deterministic fault plans.

A :class:`FaultPlan` turns any existing scenario into its faulty variant:
given the scenario's resource-join events (the sessions whose leave times
were honestly pre-declared, per :mod:`repro.workloads.churn`), the plan
injects *unannounced* events the paper's model forbids:

* **crashes** — Poisson-arriving :class:`NodeCrashEvent`\\ s: every
  resource at a node vanishes now, not at its declared end;
* **revocations** — per-session early capacity loss
  (:class:`ResourceRevocationEvent`, via
  :func:`repro.workloads.churn.broken_promises`);
* **stragglers** — Poisson-arriving :class:`RateDegradationEvent`\\ s: a
  node keeps running but delivers only a fraction of its declared rate.

Everything derives from ``random.Random(seed)`` alone, so two runs with
the same plan and workload produce identical traces — the determinism the
CI suite asserts.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from numbers import Real
from typing import List, Optional, Sequence

from repro.errors import FaultInjectionError
from repro.resources.located_type import Node
from repro.system.events import (
    Event,
    NodeCrashEvent,
    RateDegradationEvent,
    ResourceJoinEvent,
)
from repro.system.node import Topology
from repro.workloads.churn import broken_promises
from repro.workloads.scenarios import Scenario

#: Surviving rate fraction after a straggler fault.
STRAGGLER_FACTOR = Fraction(1, 2)


def require_count(name: str, value: object) -> None:
    """Reject a count field that is not an ``int`` >= 1 (``bool`` included:
    ``True`` is a flag, not a count)."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise FaultInjectionError(
            f"{name} must be an integer >= 1, got {value!r}"
        )


def require_finite(name: str, value: object) -> None:
    """Reject a numeric plan field that is not a finite real (``bool``
    included, NaN and infinities too: no comparison can bound them)."""
    if (
        isinstance(value, bool)
        or not isinstance(value, Real)
        or not math.isfinite(value)
    ):
        raise FaultInjectionError(
            f"{name} must be a finite number, got {value!r}"
        )


def require_seed(value: object) -> None:
    """Reject a seed that is not an ``int`` >= 0 (``bool`` included)."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise FaultInjectionError(
            f"seed must be an integer >= 0, got {value!r}"
        )


@dataclass(frozen=True)
class FaultPlan:
    """Deterministic description of what goes wrong, and when."""

    seed: int = 0
    #: Poisson rate of node crashes per time unit (0 disables)
    crash_rate: float = 0.0
    #: per-session probability of early, unannounced revocation
    revocation_rate: float = 0.0
    #: Poisson rate of straggler (rate-degradation) events per time unit
    straggler_rate: float = 0.0

    def __post_init__(self) -> None:
        require_seed(self.seed)
        for name in ("crash_rate", "revocation_rate", "straggler_rate"):
            require_finite(name, getattr(self, name))
        if self.crash_rate < 0 or self.straggler_rate < 0:
            raise FaultInjectionError(
                "fault rates must be non-negative, got "
                f"crash_rate={self.crash_rate!r} "
                f"straggler_rate={self.straggler_rate!r}"
            )
        if not 0 <= self.revocation_rate <= 1:
            raise FaultInjectionError(
                f"revocation_rate must lie in [0, 1], got "
                f"{self.revocation_rate!r}"
            )

    @property
    def is_benign(self) -> bool:
        """True when the plan injects nothing at all."""
        return (
            self.crash_rate == 0
            and self.revocation_rate == 0
            and self.straggler_rate == 0
        )

    def scaled(self, intensity: float) -> "FaultPlan":
        """The same plan with every rate multiplied by ``intensity`` —
        the knob fault-rate sweeps turn (revocation probability clamps
        at 1)."""
        if intensity < 0:
            raise FaultInjectionError(
                f"intensity must be non-negative, got {intensity!r}"
            )
        return replace(
            self,
            crash_rate=self.crash_rate * intensity,
            revocation_rate=min(1.0, self.revocation_rate * intensity),
            straggler_rate=self.straggler_rate * intensity,
        )

    # ------------------------------------------------------------------
    def events(
        self,
        *,
        horizon: int,
        locations: Sequence[Node],
        sessions: Sequence[ResourceJoinEvent] = (),
    ) -> List[Event]:
        """All injected fault events for one run, deterministically.

        ``locations`` are the nodes crashes and stragglers may strike;
        ``sessions`` are the join events revocations may violate.
        """
        if horizon <= 0:
            raise FaultInjectionError(
                f"horizon must be positive, got {horizon!r}"
            )
        rng = random.Random(self.seed)
        out: List[Event] = []
        if self.revocation_rate > 0 and sessions:
            out.extend(
                broken_promises(
                    rng,
                    list(sessions),
                    violation_rate=self.revocation_rate,
                )
            )
        if locations:
            out.extend(
                NodeCrashEvent(time=t, location=rng.choice(list(locations)))
                for t in _poisson_times(rng, self.crash_rate, horizon)
            )
            out.extend(
                RateDegradationEvent(
                    time=t,
                    location=rng.choice(list(locations)),
                    factor=STRAGGLER_FACTOR,
                )
                for t in _poisson_times(rng, self.straggler_rate, horizon)
            )
        return out


def _poisson_times(
    rng: random.Random, rate: float, horizon: int
) -> List[int]:
    """Integer-grid Poisson arrival times in ``[1, horizon)``."""
    if rate <= 0:
        return []
    times: List[int] = []
    t = 0.0
    while True:
        t += rng.expovariate(rate)
        at = int(t)
        if at >= horizon:
            return times
        if at >= 1:  # a fault at t=0 would precede the scenario itself
            times.append(at)


def faulty_scenario(
    scenario: Scenario,
    plan: FaultPlan,
    *,
    topology: Optional[Topology] = None,
) -> Scenario:
    """Compose a scenario with a fault plan: same workload, plus faults.

    Crash/straggler locations come from ``topology`` when given, else
    from every node mentioned by the scenario's resources (initial set
    and join events).  The original scenario object is never mutated.
    """
    if topology is not None:
        locations: List[Node] = list(topology.nodes)
    else:
        locations = _mentioned_nodes(scenario)
    sessions = [
        event
        for event in scenario.events
        if isinstance(event, ResourceJoinEvent)
    ]
    injected = plan.events(
        horizon=scenario.horizon, locations=locations, sessions=sessions
    )
    return Scenario(
        name=f"{scenario.name}+faults@{plan.seed}",
        initial_resources=scenario.initial_resources,
        events=[*scenario.events, *injected],
        horizon=scenario.horizon,
    )


def _mentioned_nodes(scenario: Scenario) -> List[Node]:
    """Every node hosting capacity anywhere in the scenario, in first-seen
    order (deterministic, so fault plans replay)."""
    seen: dict = {}

    def visit(ltypes) -> None:
        for ltype in ltypes:
            location = ltype.location
            if isinstance(location, Node):
                seen.setdefault(location, None)
            else:  # a link: both endpoints host capacity
                seen.setdefault(location.source, None)
                seen.setdefault(location.destination, None)

    visit(scenario.initial_resources.located_types)
    for event in scenario.events:
        if isinstance(event, ResourceJoinEvent):
            visit(event.resources.located_types)
    return list(seen)
