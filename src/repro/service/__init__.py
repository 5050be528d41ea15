"""Admission as a service: a backpressured front door for the controller.

The paper assumes every arrival reaches the Theorem-4 check instantly.
A deployed admission service does not get that luxury: checks take time,
arrivals burst, and an overloaded controller that queues naively turns
its own queueing delay into silent promise violations — a computation
admitted after waiting has less window left than the check believed.

:mod:`repro.service` closes that gap by treating *time spent queued at
the controller* as resource consumption charged against the arrival's
own deadline (the same window-clipping rule the controller applies to
late arrivals, :func:`repro.decision.clip_start`):

* :class:`AdmissionFrontDoor` — bounded per-enclave queues with
  deadline-aware load shedding on enqueue and dequeue;
* :class:`CircuitBreaker` — per-enclave closed/open/half-open breakers
  with seeded-jitter backoff (:class:`repro.backoff.Backoff`);
* :class:`BrownoutController` — degraded mode that swaps the exact check
  for the conservative Theorem-1 screen on low-criticality work
  (reject-only; it can never falsely admit);
* :class:`FrontDoorPolicy` — the simulator-facing adapter, so overload
  becomes an injectable condition like any other fault.

Everything is deterministic in simulated time — no wall clock, no shared
RNG streams — so shed and breaker decisions replay byte-identically
under a fixed seed (the decision log is content-fingerprinted).
"""

from repro.service.breaker import BreakerState, CircuitBreaker
from repro.service.brownout import BrownoutController
from repro.service.config import SHED_POLICIES, ServiceConfig
from repro.service.driver import serve
from repro.service.frontdoor import (
    AdmissionFrontDoor,
    ServiceOutcome,
    ServiceRequest,
)
from repro.service.policy import FrontDoorPolicy
from repro.service.queue import EnclaveLane, LatencyEwma
from repro.service.report import ServiceReport

__all__ = [
    "AdmissionFrontDoor",
    "BreakerState",
    "BrownoutController",
    "CircuitBreaker",
    "EnclaveLane",
    "FrontDoorPolicy",
    "LatencyEwma",
    "SHED_POLICIES",
    "ServiceConfig",
    "ServiceOutcome",
    "ServiceReport",
    "ServiceRequest",
    "serve",
]
