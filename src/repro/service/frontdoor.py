"""The admission front door: backpressure for the Theorem-4 check.

Every arrival passes through four gates before (maybe) reaching the
exact check, each charged in deterministic *simulated* time:

1. **Breaker** — arrivals for an open enclave are shed instantly.
2. **Enqueue screen** — the lane must have a slot, and (under the
   ``"deadline"`` shed policy) the arrival's remaining slack, up to its
   earliest component deadline, must be expected to survive the
   queueing delay estimated from the live check-latency EWMA; arrivals
   that would provably expire in the queue are shed before consuming
   any check capacity.
3. **Dequeue screen** — when the virtual service clock actually reaches
   the request, the wait is no longer an estimate; requests that went
   stale in the queue are shed for the cost of a screen, not a check.
4. **Exact check** — :func:`repro.decision.clip_start` charges the full
   queueing delay against the requirement's window, then the wrapped
   checker (Theorem 4) runs on the clipped requirement.  An admitted
   schedule therefore starts no earlier than the moment the check
   completed: *queueing alone can never violate an admitted promise*.

Under brownout, low-criticality arrivals get the conservative Theorem-1
screen instead of gate 4: screen-fail rejects (provably sound — the
exact check refuses whatever the screen refutes), screen-pass *defers*
(never admits) until pressure drops and the exact check reconciles.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.computation.requirements import (
    ComplexRequirement,
    ConcurrentRequirement,
)
from repro.decision.admission import (
    AdmissionController,
    clip_start,
    deadline_passed,
)
from repro.decision.schedule import ConcurrentSchedule
from repro.decision.screen import supply_shortfall
from repro.errors import ServiceError
from repro.intervals.interval import Interval, Time, trusted_interval
from repro.observability import get_registry
from repro.resources.located_type import Link
from repro.resources.resource_set import ResourceSet
from repro.serialization import time_to_wire
from repro.service.breaker import CircuitBreaker
from repro.service.brownout import BrownoutController
from repro.service.config import (
    CRITICALITY_LAXITY,
    EWMA_ALPHA,
    SCREEN_COST,
    ServiceConfig,
)
from repro.service.queue import EnclaveLane, LatencyEwma

#: decision-log outcome vocabulary
ADMITTED = "admitted"
REJECTED = "rejected"
SHED = "shed"
DEFERRED = "deferred"

#: stable ``reason`` vocabulary for shed decisions (metrics label values)
SHED_BREAKER_OPEN = "breaker-open"
SHED_QUEUE_FULL = "queue-full"
SHED_STALE_ENQUEUE = "stale-deadline-enqueue"
SHED_STALE_DEQUEUE = "stale-deadline-dequeue"
SHED_SCREEN_ENQUEUE = "screen-shortfall-enqueue"


def default_enclave(requirement: ConcurrentRequirement) -> str:
    """Deterministic enclave for a requirement: the first demanded
    location, in the requirement's own declaration order (links belong
    to their source node — that is where the check's bookkeeping lives)."""
    for part in requirement.components:
        for phase in part.phases:
            for ltype in phase:
                location = ltype.location
                if isinstance(location, Link):
                    return location.source.name
                return location.name
    return "default"


@dataclass(frozen=True)
class ServiceRequest:
    """One arrival at the front door."""

    label: str
    requirement: ConcurrentRequirement
    arrival: Time
    #: isolation domain; derived from the requirement when omitted
    enclave: Optional[str] = None
    #: ``"high"`` | ``"low"`` | None (derive from slack under brownout)
    criticality: Optional[str] = None


@dataclass(frozen=True)
class ServiceOutcome:
    """The front door's verdict on one arrival."""

    label: str
    enclave: str
    arrival: Time
    decided_at: Time
    outcome: str  # ADMITTED | REJECTED | SHED | DEFERRED
    reason: str = ""
    #: virtual time spent queued before the decision
    wait: Time = 0
    schedule: Optional[ConcurrentSchedule] = None
    #: True when the verdict came from a brownout reconciliation
    reconciled: bool = False

    @property
    def admitted(self) -> bool:
        return self.outcome == ADMITTED

    def log_entry(self) -> dict:
        """Wire-stable form for the replay fingerprint (schedules are
        witnesses, not decisions, so they stay out of the digest)."""
        return {
            "label": self.label,
            "enclave": self.enclave,
            "arrival": time_to_wire(self.arrival),
            "decided_at": time_to_wire(self.decided_at),
            "outcome": self.outcome,
            "reason": self.reason,
            "wait": time_to_wire(self.wait),
            "reconciled": self.reconciled,
        }


@dataclass
class _Deferred:
    request: ServiceRequest
    screened_at: Time


_new = object.__new__


def _request(
    label: str,
    requirement: ConcurrentRequirement,
    arrival: Time,
    enclave: Optional[str],
    criticality: Optional[str],
) -> ServiceRequest:
    """A :class:`ServiceRequest` filled straight into its ``__dict__``
    from fields the door already holds.

    The frozen ``__init__`` pays one ``object.__setattr__`` per field;
    this is the same instance (fields in declaration order, so equality,
    hash and pickle bytes are the ``__init__`` ones) for less."""
    request = _new(ServiceRequest)
    request.__dict__.update(
        label=label, requirement=requirement, arrival=arrival,
        enclave=enclave, criticality=criticality,
    )
    return request


def _outcome(
    label: str,
    enclave: str,
    arrival: Time,
    decided_at: Time,
    outcome: str,
    reason: str,
    wait: Time,
    schedule: Optional[ConcurrentSchedule],
    reconciled: bool,
) -> ServiceOutcome:
    """A :class:`ServiceOutcome` filled straight into its ``__dict__``,
    as :func:`_request` fills a request."""
    record = _new(ServiceOutcome)
    record.__dict__.update(
        label=label, enclave=enclave, arrival=arrival,
        decided_at=decided_at, outcome=outcome, reason=reason, wait=wait,
        schedule=schedule, reconciled=reconciled,
    )
    return record


#: the door's derived attributes (:meth:`AdmissionFrontDoor._derive`)
_DERIVED = ("_dequeue_cost", "_slow_threshold", "_drained_at")


class AdmissionFrontDoor:
    """Bounded, shedding, breaker-guarded facade over an exact checker.

    ``checker(requirement, now)`` runs the exact Theorem-4 decision and
    *commits* on admit; ``prober``, when given, is its read-only twin
    (used to cross-check brownout soundness).  ``slack_view()`` returns
    the resource set the Theorem-1 screen tests against — the expiring
    slack is the natural choice, since that is exactly what the exact
    check consults.

    Most callers should use :meth:`for_controller` (standalone service)
    or :class:`repro.service.policy.FrontDoorPolicy` (simulator).
    """

    def __init__(
        self,
        checker: Callable[[ConcurrentRequirement, Time], object],
        slack_view: Callable[[], ResourceSet],
        config: Optional[ServiceConfig] = None,
        *,
        prober: Optional[Callable[[ConcurrentRequirement, Time], object]] = None,
        stalls: Optional[Mapping[str, Sequence[Tuple[Time, Time]]]] = None,
        defer_low_criticality: bool = True,
        verify_brownout: bool = False,
    ) -> None:
        self._checker = checker
        self._slack_view = slack_view
        self.config = config or ServiceConfig()
        self._prober = prober
        self._stalls: Dict[str, Tuple[Tuple[Time, Time], ...]] = {
            enclave: tuple((start, end) for start, end in windows)
            for enclave, windows in (stalls or {}).items()
        }
        self._defer_low_criticality = defer_low_criticality
        if verify_brownout and prober is None:
            raise ServiceError(
                "verify_brownout needs a read-only prober for the exact check"
            )
        self._verify_brownout = verify_brownout
        self._busy_until: Time = 0
        self._last_arrival: Time = 0
        self._lanes: Dict[str, EnclaveLane] = {}
        self._breakers: Dict[str, CircuitBreaker] = {}
        self._ewma = LatencyEwma(EWMA_ALPHA, self.config.check_cost)
        self.brownout = BrownoutController(
            enter_depth=self.config.brownout_enter,
            exit_depth=self.config.brownout_exit,
            latency=self.config.brownout_latency,
        )
        self._deferred: List[_Deferred] = []
        #: every terminal verdict, in decision order
        self.outcomes: List[ServiceOutcome] = []
        #: brownout screen verdicts cross-checked against the exact check
        self.brownout_verified = 0
        self._brownout_counted = 0
        self._derive()

    # ------------------------------------------------------------------
    # Derived state (never pickled: policies checkpoint the door)
    # ------------------------------------------------------------------
    def _derive(self) -> None:
        """Values every offer reads, computed once from the config, and
        the instant of the last lane drain (unknown after a load)."""
        #: dequeue screen threshold past the start of service
        self._dequeue_cost = SCREEN_COST + self.config.check_cost
        self._slow_threshold = self.config.slow_threshold
        self._drained_at: Optional[Time] = None

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        for name in _DERIVED:
            del state[name]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._derive()

    # ------------------------------------------------------------------
    @classmethod
    def for_controller(
        cls,
        controller: AdmissionController,
        config: Optional[ServiceConfig] = None,
        **kwargs: object,
    ) -> "AdmissionFrontDoor":
        """Wrap an :class:`AdmissionController` as a standalone service."""

        def checker(requirement: ConcurrentRequirement, now: Time):
            if now > controller.now:
                controller.advance_to(now)
            return controller.admit(requirement)

        def prober(requirement: ConcurrentRequirement, now: Time):
            if now > controller.now:
                controller.advance_to(now)
            return controller.can_admit(requirement)

        door = cls(
            checker,
            lambda: controller.expiring_slack,
            config,
            prober=prober,
            **kwargs,
        )
        door._controller = controller
        return door

    # ------------------------------------------------------------------
    # State inspection
    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        """Outstanding checks across all lanes (in virtual time)."""
        return sum([lane.depth for lane in self._lanes.values()])

    @property
    def check_latency(self) -> Time:
        """The live check-cost EWMA the enqueue screen prices waits with."""
        return self._ewma.value

    @property
    def deferred_labels(self) -> tuple[str, ...]:
        return tuple(entry.request.label for entry in self._deferred)

    def lane(self, enclave: str) -> EnclaveLane:
        lane = self._lanes.get(enclave)
        if lane is None:
            lane = EnclaveLane(enclave, self.config.max_queue)
            self._lanes[enclave] = lane
        return lane

    def breaker(self, enclave: str) -> CircuitBreaker:
        breaker = self._breakers.get(enclave)
        if breaker is None:
            # Fold the service seed into the backoff's own: the jitter
            # stream is keyed (seed, enclave, attempt), nothing shared.
            backoff = replace(
                self.config.backoff,
                seed=self.config.backoff.seed + self.config.seed,
            )
            breaker = CircuitBreaker(
                enclave,
                failures=self.config.breaker_failures,
                probes=self.config.breaker_probes,
                backoff=backoff,
            )
            self._breakers[enclave] = breaker
        return breaker

    def accepting(self, enclave: str, now: Time) -> bool:
        """Read-only: is this enclave's breaker letting traffic through?"""
        return self.breaker(enclave).accepting(now)

    def fingerprint(self) -> str:
        """Content hash of the decision log (plus the seed): two runs
        shed and trip identically iff their fingerprints match."""
        payload = {
            "seed": self.config.seed,
            "decisions": [outcome.log_entry() for outcome in self.outcomes],
        }
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    # ------------------------------------------------------------------
    # Resource dynamics
    # ------------------------------------------------------------------
    def add_resources(self, resources: ResourceSet, now: Time) -> None:
        """Resources joined; forward to the wrapped controller's view."""
        self._advance(now)
        controller = getattr(self, "_controller", None)
        if controller is not None:
            if now > controller.now:
                controller.advance_to(now)
            controller.add_resources(resources)

    # ------------------------------------------------------------------
    # The front door
    # ------------------------------------------------------------------
    def offer(self, request: ServiceRequest) -> ServiceOutcome:
        """Decide one arrival; terminal unless brownout defers it."""
        t = request.arrival
        if t < self._last_arrival:
            raise ServiceError(
                f"arrivals must be offered in time order: {t} < {self._last_arrival}"
            )
        self._last_arrival = t
        self._advance(t)
        requirement = _as_concurrent(request.requirement)
        enclave = request.enclave or default_enclave(requirement)
        request = _request(
            request.label, requirement, t, enclave, request.criticality
        )
        lane = self.lane(enclave)
        breaker = self.breaker(enclave)

        # Gate 1: the breaker (also promotes open -> half-open on probe).
        if not breaker.allow(t):
            return self._finish_outcome(
                request, t, SHED, SHED_BREAKER_OPEN, wait=0
            )
        # Gate 2: bounded lane...
        if lane.full:
            return self._finish_outcome(request, t, SHED, SHED_QUEUE_FULL, wait=0)
        # ...and the deadline-aware enqueue screen.
        wait = self._busy_until - t if self._busy_until > t else 0
        if self.config.shed_policy == "deadline":
            est_decided = t + wait + self._ewma.value
            if est_decided >= _first_deadline(requirement):
                return self._finish_outcome(
                    request, t, SHED, SHED_STALE_ENQUEUE, wait=0
                )
            # The screen keeps the outer window: it must refute only what
            # the exact check refuses.
            shortfall = supply_shortfall(
                self._slack_view(),
                requirement,
                window=trusted_interval(est_decided, requirement.deadline),
            )
            if shortfall is not None:
                return self._finish_outcome(
                    request, t, SHED, SHED_SCREEN_ENQUEUE, wait=0
                )

        # Brownout: low-criticality work gets the screen, not the check.
        # ``_advance(t)`` re-evaluated the mode, and no gate since moved
        # the depth or the estimate.
        if self.brownout.active and self._is_low_criticality(request, wait):
            return self._brownout_offer(request, lane, t, wait)

        return self._exact_offer(request, lane, breaker, t, wait)

    # ------------------------------------------------------------------
    def _exact_offer(
        self,
        request: ServiceRequest,
        lane: EnclaveLane,
        breaker: CircuitBreaker,
        t: Time,
        wait: Time,
        *,
        reconciled: bool = False,
    ) -> ServiceOutcome:
        """Gates 3 and 4: dequeue re-screen, then the exact check."""
        requirement = request.requirement
        start_at = t + wait
        # Gate 3: by dequeue time the wait is exact.  A request that went
        # stale in the queue is recognised for the price of a screen.
        if self.config.shed_policy == "deadline" and (
            # A float clock adds the two costs in turn, rounding each time.
            start_at + SCREEN_COST + self.config.check_cost
            if isinstance(start_at, float)
            else start_at + self._dequeue_cost
        ) >= _first_deadline(requirement):
            decided_at = self._charge(lane, t, SCREEN_COST)
            return self._finish_outcome(
                request,
                decided_at,
                SHED,
                SHED_STALE_DEQUEUE,
                wait=wait,
                reconciled=reconciled,
            )
        # Gate 4: the exact Theorem-4 check, at its stall-aware cost.
        cost = (
            self.config.stall_cost
            if self._stalled(request.enclave, start_at)
            else self.config.check_cost
        )
        decided_at = self._charge(lane, t, cost)
        self._ewma.observe(cost)
        self._note_breaker_check(breaker, decided_at, cost)
        if deadline_passed(requirement, decided_at):
            # The check itself (a stall, or tail-drop skipping gate 3)
            # overran a deadline; nothing left to admit against.
            return self._finish_outcome(
                request,
                decided_at,
                SHED,
                SHED_STALE_DEQUEUE,
                wait=wait,
                reconciled=reconciled,
            )
        clipped = clip_start(requirement, decided_at)
        decision = self._checker(clipped, t)
        outcome = ADMITTED if decision.admitted else REJECTED
        queued = decided_at - t - cost
        return self._finish_outcome(
            request,
            decided_at,
            outcome,
            getattr(decision, "reason", ""),
            wait=queued if queued > 0 else 0,
            schedule=getattr(decision, "schedule", None),
            reconciled=reconciled,
        )

    def _brownout_offer(
        self,
        request: ServiceRequest,
        lane: EnclaveLane,
        t: Time,
        wait: Time,
    ) -> ServiceOutcome:
        """Degraded path: Theorem-1 screen; reject or defer, never admit."""
        requirement = request.requirement
        decided_at = self._charge(lane, t, SCREEN_COST)
        window = Interval(
            min(max(requirement.start, decided_at), requirement.deadline),
            requirement.deadline,
        )
        # Too late for a component: nothing is left to screen or probe.
        late = deadline_passed(requirement, decided_at)
        if window.is_empty:
            shortfall = f"window {window} is empty"
        elif late:
            shortfall = f"a component deadline passed by t={decided_at}"
        else:
            shortfall = supply_shortfall(
                self._slack_view(), requirement, window=window
            )
        if shortfall is not None:
            if self._verify_brownout and not late:
                probe = self._prober(clip_start(requirement, decided_at), t)
                if probe.admitted:
                    raise ServiceError(
                        "brownout screen rejected what the exact check "
                        f"admits — Theorem-1 soundness broken for "
                        f"{request.label!r}: {shortfall}"
                    )
                self.brownout_verified += 1
            return self._finish_outcome(
                request,
                decided_at,
                REJECTED,
                f"brownout screen: {shortfall}",
                wait=wait,
            )
        if not self._defer_low_criticality:
            return self._finish_outcome(
                request,
                decided_at,
                REJECTED,
                "brownout: deferred to reconciliation",
                wait=wait,
            )
        self._deferred.append(_Deferred(request, decided_at))
        outcome = _outcome(
            request.label,
            request.enclave,
            request.arrival,
            decided_at,
            DEFERRED,
            "brownout: screen passed; awaiting exact check",
            wait,
            None,
            False,
        )
        self._count(outcome)
        return outcome

    # ------------------------------------------------------------------
    def reconcile(self, now: Time) -> List[ServiceOutcome]:
        """Run the exact check on deferred work (pressure permitting)."""
        self._advance(now)
        if self.brownout.active or not self._deferred:
            return []
        return self._resolve_deferred(now)

    def finish(self, now: Time) -> List[ServiceOutcome]:
        """End of the arrival stream: resolve every deferral, brownout or
        not — pressure has stopped building by construction."""
        self._advance(now)
        return self._resolve_deferred(now)

    def _resolve_deferred(self, now: Time) -> List[ServiceOutcome]:
        resolved: List[ServiceOutcome] = []
        pending, self._deferred = self._deferred, []
        for entry in pending:
            request = entry.request
            t = max(now, entry.screened_at)
            lane = self.lane(request.enclave)
            breaker = self.breaker(request.enclave)
            wait = self._busy_until - t if self._busy_until > t else 0
            if _first_deadline(request.requirement) <= t + wait:
                decided_at = self._charge(lane, t, SCREEN_COST)
                resolved.append(
                    self._finish_outcome(
                        request,
                        decided_at,
                        SHED,
                        SHED_STALE_DEQUEUE,
                        wait=t + wait - request.arrival,
                        reconciled=True,
                    )
                )
                continue
            resolved.append(
                self._exact_offer(
                    request, lane, breaker, t, wait, reconciled=True
                )
            )
        return resolved

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _advance(self, now: Time) -> None:
        """Virtual time reached ``now``: retire completed checks and
        re-evaluate brownout (reconciliation stays caller-driven).

        At the instant of the last drain the lanes hold nothing to
        retire: every check charged since started no earlier than that
        instant and costs a positive time, so it completes after it.
        Only the mode is re-evaluated then (``serve()`` reconciles at
        each offer's own instant)."""
        if now != self._drained_at:
            for lane in self._lanes.values():
                lane.drain(now)
            self._drained_at = now
        self.brownout.update(now, self.depth, self._ewma.value)
        self._note_brownout()

    def _charge(self, lane: EnclaveLane, t: Time, cost: Time) -> Time:
        """Occupy the service clock for ``cost`` starting no earlier than
        ``t``; returns the completion (= decision) time."""
        start = self._busy_until if self._busy_until > t else t
        completion = start + cost
        self._busy_until = completion
        lane.push(completion)
        return completion

    def _stalled(self, enclave: str, at: Time) -> bool:
        for start, end in self._stalls.get(enclave, ()):
            if start <= at < end:
                return True
        return False

    def _is_low_criticality(self, request: ServiceRequest, wait: Time) -> bool:
        if request.criticality is not None:
            return request.criticality == "low"
        remaining = request.requirement.deadline - request.arrival
        budget = wait + self._ewma.value
        return remaining >= CRITICALITY_LAXITY * budget

    def _note_brownout(self) -> None:
        transitions = self.brownout.transitions
        if len(transitions) == self._brownout_counted:
            return
        fresh = transitions[self._brownout_counted :]
        self._brownout_counted = len(transitions)
        registry = get_registry()
        if not registry.enabled:
            return
        for _, kind in fresh:
            registry.counter(
                "door_brownout_transitions_total",
                "brownout mode entries and exits",
                labels=("kind",),
            ).inc(kind=kind)

    def _note_breaker_check(
        self, breaker: CircuitBreaker, now: Time, cost: Time
    ) -> None:
        before = len(breaker.transitions)
        if cost >= self._slow_threshold:
            breaker.record_failure(now)
        else:
            breaker.record_success(now)
        registry = get_registry()
        if registry.enabled:
            for at, _, to in breaker.transitions[before:]:
                registry.counter(
                    "door_breaker_transitions_total",
                    "front-door circuit-breaker transitions",
                    labels=("enclave", "to"),
                ).inc(enclave=breaker.enclave, to=to)

    def _finish_outcome(
        self,
        request: ServiceRequest,
        decided_at: Time,
        outcome: str,
        reason: str,
        *,
        wait: Time,
        schedule: Optional[ConcurrentSchedule] = None,
        reconciled: bool = False,
    ) -> ServiceOutcome:
        result = _outcome(
            request.label,
            request.enclave,
            request.arrival,
            decided_at,
            outcome,
            reason,
            wait,
            schedule,
            reconciled,
        )
        self.outcomes.append(result)
        self._count(result)
        return result

    def _count(self, outcome: ServiceOutcome) -> None:
        registry = get_registry()
        if not registry.enabled:
            return
        reason_key = outcome.reason if outcome.outcome == SHED else ""
        registry.counter(
            "door_requests_total",
            "front-door verdicts by outcome (shed reasons labelled)",
            labels=("outcome", "reason"),
        ).inc(outcome=outcome.outcome, reason=reason_key)
        registry.gauge(
            "door_queue_depth",
            "outstanding front-door checks per enclave (virtual time)",
            labels=("enclave",),
        ).set(self.lane(outcome.enclave).depth, enclave=outcome.enclave)
        registry.histogram(
            "door_queue_wait",
            "virtual time arrivals spent queued before their verdict",
            buckets=(0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 64.0),
        ).observe(float(outcome.wait))


def _first_deadline(requirement: ConcurrentRequirement) -> Time:
    """The earliest component deadline: a decision at or after it comes
    too late for that component, whatever the outer deadline says."""
    first = requirement.deadline
    for part in requirement.components:
        if part.deadline < first:
            first = part.deadline
    return first


def _as_concurrent(
    requirement: ComplexRequirement | ConcurrentRequirement,
) -> ConcurrentRequirement:
    if isinstance(requirement, ConcurrentRequirement):
        return requirement
    return ConcurrentRequirement((requirement,), requirement.window)
