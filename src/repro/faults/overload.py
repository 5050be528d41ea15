"""Overload as an injectable condition, and the matrix that proves the
front door's guarantees under it.

The crash matrix (:mod:`repro.faults.chaos`) asks "does a killed run
resume identically?"; this module asks the overload analogues:

1. **Promise safety** — at every load multiplier (up to a 10x flash
   crowd), no admitted request's promise is violated by queueing alone:
   every admitted schedule fits inside ``(decision time, deadline)``.
2. **Replay identity** — shed, breaker, and brownout decisions are a
   deterministic function of ``(stream, config, seed)``.
3. **Brownout soundness** — the degraded (Theorem-1 screen) path never
   rejects anything the exact Theorem-4 check would admit; every screen
   rejection is cross-checked against the read-only exact check.

Two legs, both replayed through :func:`repro.faults.chaos.replay_identity`:

* the **door leg** serves a stream through :func:`repro.service.serve`
  twice and compares decision-log fingerprints
  (:func:`serve_fingerprint`) — once per flash-crowd multiplier, and
  once on the stalled-enclave stream, which must also trip a breaker;
* the **simulator leg** runs the stalled-enclave stream through the
  simulator behind :class:`~repro.service.FrontDoorPolicy`, asserting
  the extended conservation identity (``offered = consumed + expired +
  lost + shed``) at every slice and whole-run, and replays the report
  fingerprint, which the policy extends with the door's decision log
  (``"door"``).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Tuple

from repro.errors import FaultInjectionError
from repro.faults.chaos import (
    MatrixResult,
    replay_identity,
    replay_verdict,
    report_fingerprint,
)
from repro.faults.plan import require_count, require_finite, require_seed
from repro.service.config import ServiceConfig
from repro.service.driver import serve
from repro.service.policy import FrontDoorPolicy
from repro.service.report import ServiceReport
from repro.system.events import arrival, resource_join
from repro.system.simulator import OpenSystemSimulator, SimulationReport
from repro.workloads.overload import (
    flash_crowd_requests,
    stalled_enclave_stream,
)


@dataclass(frozen=True)
class OverloadPlan:
    """Deterministic description of an overload experiment."""

    seed: int = 0
    #: flash-crowd load multipliers to sweep (1 = no overload control)
    multipliers: Tuple[int, ...] = (1, 2, 4, 10)
    #: nodes in the synthetic cluster
    nodes: int = 3
    #: burst window (start, duration) in simulated time
    burst_at: int = 20
    burst_duration: int = 10
    horizon: int = 60
    #: per-request deadline slack (window length)
    deadline_slack: int = 8
    #: also run the stalled-enclave leg
    stalled_enclave: bool = True

    def __post_init__(self) -> None:
        require_seed(self.seed)
        if (
            not isinstance(self.multipliers, (tuple, list))
            or not self.multipliers
        ):
            raise FaultInjectionError(
                f"multipliers must be a non-empty tuple or list, "
                f"got {self.multipliers!r}"
            )
        for multiplier in self.multipliers:
            require_count("each multiplier", multiplier)
        require_count("nodes", self.nodes)
        for name in (
            "burst_at", "burst_duration", "horizon", "deadline_slack"
        ):
            require_finite(name, getattr(self, name))
        if self.burst_at < 0 or self.burst_duration <= 0:
            raise FaultInjectionError(
                f"burst window must be non-negative and non-empty, got "
                f"start={self.burst_at!r} duration={self.burst_duration!r}"
            )
        if self.horizon <= self.burst_at:
            raise FaultInjectionError(
                f"horizon {self.horizon!r} must exceed burst_at "
                f"{self.burst_at!r}"
            )
        if self.deadline_slack <= 0:
            raise FaultInjectionError(
                f"deadline_slack must be > 0, got {self.deadline_slack!r}"
            )


@dataclass
class OverloadPoint:
    """One cell of the overload matrix and what it proved."""

    kind: str  # "flash-crowd" | "stalled-enclave" | "simulator"
    multiplier: int
    offered: int = 0
    admitted: int = 0
    shed: int = 0
    #: labels of admitted requests whose promise queueing already broke
    queueing_violations: List[str] = field(default_factory=list)
    #: the two runs' fingerprints agree field for field
    identical: bool = False
    #: brownout screen rejections cross-checked against the exact check
    brownout_verified: int = 0
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.identical and not self.queueing_violations and not self.detail


def serve_fingerprint(report: ServiceReport) -> Dict[str, Any]:
    """The replay fingerprint of a standalone ``serve()`` run: its
    decision-log fingerprint (seed plus every verdict)."""
    return {"decisions": report.fingerprint}


def _config(plan: OverloadPlan) -> ServiceConfig:
    # Thresholds sized to the synthetic cluster: small queues so a 10x
    # burst actually pressures them, brownout engaging well before the
    # bound so the degraded path is exercised, not just reachable.
    return ServiceConfig(
        max_queue=16,
        brownout_enter=8,
        brownout_exit=3,
        seed=plan.seed,
    )


def chaos_overload_matrix(plan: OverloadPlan = OverloadPlan()) -> MatrixResult:
    """Sweep the overload matrix; callers assert ``result.ok``.

    Every flash-crowd multiplier is served twice (replay identity) with
    brownout soundness verification on; the stalled-enclave leg runs
    both standalone and through the simulator with per-slice
    conservation checks.
    """
    config = _config(plan)
    result = MatrixResult("overload")
    points = result.points
    for multiplier in plan.multipliers:
        stream = functools.partial(_flash_crowd, plan, multiplier)
        points.append(_door_point("flash-crowd", multiplier, stream, config))
    if plan.stalled_enclave:
        stream = functools.partial(_stalled_enclave, plan)
        points.append(_door_point("stalled-enclave", 1, stream, config))
        points.append(_simulator_point(plan))
    return result


def _flash_crowd(plan: OverloadPlan, multiplier: int) -> Dict[str, Any]:
    resources, requests = flash_crowd_requests(
        plan.seed,
        multiplier=multiplier,
        nodes=plan.nodes,
        burst_at=plan.burst_at,
        burst_duration=plan.burst_duration,
        horizon=plan.horizon,
        deadline_slack=plan.deadline_slack,
    )
    return dict(requests=requests, resources=resources)


def _stalled_enclave(plan: OverloadPlan) -> Dict[str, Any]:
    resources, requests, joins, stalls = stalled_enclave_stream(
        plan.seed, nodes=plan.nodes, horizon=plan.horizon
    )
    return dict(
        requests=requests, resources=resources, joins=joins, stalls=stalls
    )


def _door_point(
    kind: str,
    multiplier: int,
    stream: Callable[[], Dict[str, Any]],
    config: ServiceConfig,
) -> OverloadPoint:
    """The door leg: serve the stream twice, compare decision logs."""
    report, diverged = replay_identity(
        lambda: serve(**stream(), config=config, verify_brownout=True),
        serve_fingerprint,
    )
    gentle = kind == "stalled-enclave" and not report.breaker_transitions
    return OverloadPoint(
        kind=kind,
        multiplier=multiplier,
        offered=len(report.outcomes),
        admitted=report.goodput,
        shed=len(report.shed),
        queueing_violations=report.queueing_violations(),
        identical=not diverged,
        brownout_verified=report.brownout_verified,
        detail=replay_verdict(
            diverged,
            "stall never tripped a breaker (plan too gentle)" if gentle else "",
        ),
    )


def _door_simulation(
    plan: OverloadPlan, **durability: Any
) -> Tuple[SimulationReport, FrontDoorPolicy]:
    stream = _stalled_enclave(plan)
    policy = FrontDoorPolicy(
        config=ServiceConfig(breaker_failures=2, seed=plan.seed),
        stalls=stream["stalls"],
        verify_brownout=True,
    )
    simulator = OpenSystemSimulator(
        policy,
        initial_resources=stream["resources"],
        invariant_interval=1,
    )
    simulator.schedule(
        *(arrival(r.arrival, r.requirement, label=r.label)
          for r in stream["requests"]),
        *(resource_join(at, joining) for at, joining in stream["joins"]),
    )
    return simulator.run(plan.horizon, **durability), policy


def _simulator_point(plan: OverloadPlan) -> OverloadPoint:
    """The simulator leg: shed conservation holds at every slice and the
    whole run (including shed losses and the door's decision log)
    replays field-identically."""
    (report, policy), diverged = replay_identity(
        lambda: _door_simulation(plan),
        lambda run: report_fingerprint(*run),
    )
    shed = report.trace.shed_totals()
    return OverloadPoint(
        kind="simulator",
        multiplier=1,
        offered=len(report.records),
        admitted=sum(1 for r in report.records if r.admitted),
        shed=len(shed),
        identical=not diverged,
        brownout_verified=policy.door.brownout_verified,
        # The per-slice identity already ran inside the simulator
        # (invariant_interval=1); this is the whole-run one.
        detail=replay_verdict(
            diverged,
            "" if shed else "no capacity was shed (breaker never walled a join)",
            report.trace.conservation_gaps(report.offered),
        ),
    )
