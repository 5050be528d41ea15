"""The front door against its pre-change formulas.

The door's per-offer bookkeeping takes shortcuts that must not change a
decision: :func:`repro.decision.clip_start` assembles the clipped
requirement from parts already validated, :meth:`LatencyEwma.observe`
skips the update when the cost equals the estimate, ``_advance`` skips
the lane drain at the instant it last drained, and records are filled
straight into their ``__dict__``.  :class:`ReferenceDoor` is the door
as it decided before those shortcuts: the validating clip
(:func:`_reference_clip_start`), the full EWMA update
(:func:`_reference_ewma_update`), a drain on every advance, a second
brownout update after the enqueue screen, the constructors for every
record and the costs summed in turn at gate 3.  Every outcome field
(value and type), the fingerprint and the queue state after each call
must match over seeded flash crowds and stalled enclaves, under both
shed policies.
"""

from __future__ import annotations

import dataclasses
import math
import pickle
import random
from fractions import Fraction
from typing import Optional

import pytest

from repro.computation import ComplexRequirement, ConcurrentRequirement, Demands
from repro.decision import AdmissionController, clip_start
from repro.decision.admission import _reference_clip_start, deadline_passed
from repro.intervals import Interval
from repro.intervals.interval import trusted_interval
from repro.resources import ResourceSet, cpu, term
from repro.service import LatencyEwma, ServiceConfig, ServiceRequest
from repro.service import frontdoor
from repro.service.config import EWMA_ALPHA, SCREEN_COST
from repro.service.frontdoor import (
    ADMITTED,
    DEFERRED,
    REJECTED,
    SHED,
    SHED_BREAKER_OPEN,
    SHED_QUEUE_FULL,
    SHED_SCREEN_ENQUEUE,
    SHED_STALE_DEQUEUE,
    SHED_STALE_ENQUEUE,
    AdmissionFrontDoor,
    ServiceOutcome,
    _as_concurrent,
    _Deferred,
    _outcome,
    _request,
    default_enclave,
)
from repro.service.queue import _reference_ewma_update
from repro.workloads import flash_crowd_requests, stalled_enclave_stream


class FullEwma(LatencyEwma):
    """The estimate updated in full on every observation."""

    def observe(self, cost):
        self._value = _reference_ewma_update(self._alpha, self._value, cost)
        self._observations += 1
        return self._value


class ReferenceDoor(AdmissionFrontDoor):
    """The door on its pre-change formulas (see the module docstring)."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._ewma = FullEwma(EWMA_ALPHA, self.config.check_cost)

    def offer(self, request):
        t = request.arrival
        self._last_arrival = t
        self._advance(t)
        requirement = _as_concurrent(request.requirement)
        enclave = request.enclave or default_enclave(requirement)
        request = dataclasses.replace(
            request, enclave=enclave, requirement=requirement
        )
        lane = self.lane(enclave)
        breaker = self.breaker(enclave)
        if not breaker.allow(t):
            return self._finish_outcome(
                request, t, SHED, SHED_BREAKER_OPEN, wait=0
            )
        if lane.full:
            return self._finish_outcome(request, t, SHED, SHED_QUEUE_FULL, wait=0)
        wait = self._busy_until - t if self._busy_until > t else 0
        if self.config.shed_policy == "deadline":
            est_decided = t + wait + self._ewma.value
            if est_decided >= requirement.deadline:
                return self._finish_outcome(
                    request, t, SHED, SHED_STALE_ENQUEUE, wait=0
                )
            shortfall = frontdoor.supply_shortfall(
                self._slack_view(),
                requirement,
                window=Interval(est_decided, requirement.deadline),
            )
            if shortfall is not None:
                return self._finish_outcome(
                    request, t, SHED, SHED_SCREEN_ENQUEUE, wait=0
                )
        self.brownout.update(t, self.depth, self._ewma.value)
        self._note_brownout()
        if self.brownout.active and self._is_low_criticality(request, wait):
            return self._brownout_offer(request, lane, t, wait)
        return self._exact_offer(request, lane, breaker, t, wait)

    def _exact_offer(self, request, lane, breaker, t, wait, *, reconciled=False):
        requirement = request.requirement
        start_at = t + wait
        if (
            self.config.shed_policy == "deadline"
            and start_at + SCREEN_COST + self.config.check_cost
            >= requirement.deadline
        ):
            decided_at = self._charge(lane, t, SCREEN_COST)
            return self._finish_outcome(
                request, decided_at, SHED, SHED_STALE_DEQUEUE,
                wait=wait, reconciled=reconciled,
            )
        cost = (
            self.config.stall_cost
            if self._stalled(request.enclave, start_at)
            else self.config.check_cost
        )
        decided_at = self._charge(lane, t, cost)
        self._ewma.observe(cost)
        self._note_breaker_check(breaker, decided_at, cost)
        if deadline_passed(requirement, decided_at):
            return self._finish_outcome(
                request, decided_at, SHED, SHED_STALE_DEQUEUE,
                wait=wait, reconciled=reconciled,
            )
        clipped = _reference_clip_start(requirement, decided_at)
        decision = self._checker(clipped, t)
        return self._finish_outcome(
            request,
            decided_at,
            ADMITTED if decision.admitted else REJECTED,
            getattr(decision, "reason", ""),
            wait=decided_at - t - cost if decided_at - t - cost > 0 else 0,
            schedule=getattr(decision, "schedule", None),
            reconciled=reconciled,
        )

    def _brownout_offer(self, request, lane, t, wait):
        requirement = request.requirement
        decided_at = self._charge(lane, t, SCREEN_COST)
        window = Interval(
            min(max(requirement.start, decided_at), requirement.deadline),
            requirement.deadline,
        )
        late = deadline_passed(requirement, decided_at)
        if window.is_empty:
            shortfall = f"window {window} is empty"
        elif late:
            shortfall = f"a component deadline passed by t={decided_at}"
        else:
            shortfall = frontdoor.supply_shortfall(
                self._slack_view(), requirement, window=window
            )
        if shortfall is not None:
            if self._verify_brownout and not late:
                probe = self._prober(
                    _reference_clip_start(requirement, decided_at), t
                )
                assert not probe.admitted
                self.brownout_verified += 1
            return self._finish_outcome(
                request, decided_at, REJECTED,
                f"brownout screen: {shortfall}", wait=wait,
            )
        if not self._defer_low_criticality:
            return self._finish_outcome(
                request, decided_at, REJECTED,
                "brownout: deferred to reconciliation", wait=wait,
            )
        self._deferred.append(_Deferred(request, decided_at))
        outcome = ServiceOutcome(
            label=request.label,
            enclave=request.enclave,
            arrival=request.arrival,
            decided_at=decided_at,
            outcome=DEFERRED,
            reason="brownout: screen passed; awaiting exact check",
            wait=wait,
        )
        self._count(outcome)
        return outcome

    def _advance(self, now):
        for lane in self._lanes.values():
            lane.drain(now)
        self.brownout.update(now, self.depth, self._ewma.value)
        self._note_brownout()

    def _finish_outcome(
        self, request, decided_at, outcome, reason, *,
        wait, schedule=None, reconciled=False,
    ):
        result = ServiceOutcome(
            label=request.label,
            enclave=request.enclave,
            arrival=request.arrival,
            decided_at=decided_at,
            outcome=outcome,
            reason=reason,
            wait=wait,
            schedule=schedule,
            reconciled=reconciled,
        )
        self.outcomes.append(result)
        self._count(result)
        return result


# ----------------------------------------------------------------------
# Driving both doors the way serve() does
# ----------------------------------------------------------------------
def _state(door: AdmissionFrontDoor) -> tuple:
    """What the next offer reads: queue, clock, estimate and mode."""
    latency = door.check_latency
    return (
        tuple(
            (name, tuple(lane._completions)) for name, lane in door._lanes.items()
        ),
        door._busy_until,
        type(door._busy_until),
        latency,
        type(latency),
        door.brownout.active,
        tuple(door.brownout.transitions),
        door.deferred_labels,
    )


def drive(
    door: AdmissionFrontDoor,
    requests,
    joins=(),
    *,
    pickle_at: Optional[int] = None,
) -> tuple[list, AdmissionFrontDoor]:
    """``serve()``'s loop (reconciling at each event's own instant),
    returning every outcome and the door state after each call.  With
    ``pickle_at``, the door is round-tripped through pickle before that
    event, as a checkpoint would."""
    events = [(at, 0, seq, joining) for seq, (at, joining) in enumerate(joins)]
    events += [(r.arrival, 1, seq, r) for seq, r in enumerate(requests)]
    events.sort(key=lambda event: event[:3])
    trace: list = []
    for index, (at, kind, _, payload) in enumerate(events):
        if index == pickle_at:
            door = pickle.loads(pickle.dumps(door))
        if kind == 0:
            door.add_resources(payload, at)
        else:
            trace.append(door.offer(payload))
        trace.extend(door.reconcile(at))
        trace.append(_state(door))
    end = max([0] + [r.requirement.deadline for r in requests])
    trace.extend(door.finish(end))
    trace.append(_state(door))
    return trace, door


def assert_same_trace(trace: list, expected: list) -> None:
    assert len(trace) == len(expected)
    for got, want in zip(trace, expected):
        if isinstance(want, ServiceOutcome):
            assert type(got) is ServiceOutcome
            for field in dataclasses.fields(ServiceOutcome):
                a, b = getattr(got, field.name), getattr(want, field.name)
                assert a == b, (field.name, got, want)
                assert type(a) is type(b), (field.name, got, want)
        else:
            assert got == want


def run_both(resources, requests, config, *, joins=(), stalls=None, defer=True):
    doors = []
    for cls in (AdmissionFrontDoor, ReferenceDoor):
        door = cls.for_controller(
            AdmissionController(resources, align=1),
            config,
            stalls=stalls,
            verify_brownout=True,
            defer_low_criticality=defer,
        )
        trace, door = drive(door, requests, joins)
        doors.append((trace, door))
    (trace, door), (expected, reference) = doors
    assert_same_trace(trace, expected)
    assert door.fingerprint() == reference.fingerprint()
    assert door.brownout_verified == reference.brownout_verified
    return door, trace


def _kinds(door: AdmissionFrontDoor) -> set:
    return {outcome.outcome for outcome in door.outcomes} | {
        outcome.reason for outcome in door.outcomes if outcome.outcome == SHED
    }


class TestFlashCrowds:
    @pytest.mark.parametrize("policy", ["deadline", "tail-drop"])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_outcomes_and_fingerprint_match_the_reference(self, seed, policy):
        resources, requests = flash_crowd_requests(
            seed, multiplier=10, deadline_slack=8
        )
        config = ServiceConfig(
            max_queue=16, shed_policy=policy, brownout_enter=8,
            brownout_exit=3, seed=seed,
        )
        door, _ = run_both(resources, requests, config)
        kinds = _kinds(door)
        assert ADMITTED in kinds and REJECTED in kinds
        assert door.brownout.entries > 0
        if policy == "deadline":
            assert SHED_SCREEN_ENQUEUE in kinds or SHED_STALE_ENQUEUE in kinds

    @pytest.mark.parametrize("seed", [0, 1])
    def test_deferrals_reconciled_at_the_offers_instant(self, seed):
        """A tight brownout band defers work, and ``serve()`` reconciles
        it at the instant of the offer that lifted the pressure: the
        instant the lanes were last drained."""
        resources, requests = flash_crowd_requests(
            seed, multiplier=10, deadline_slack=16
        )
        config = ServiceConfig(
            max_queue=32, brownout_enter=4, brownout_exit=2, seed=seed
        )
        door, _ = run_both(resources, requests, config)
        reconciled = [o for o in door.outcomes if o.reconciled]
        assert reconciled
        assert any(o.arrival != o.decided_at for o in reconciled)

    def test_rejected_deferrals_without_reconciliation(self):
        resources, requests = flash_crowd_requests(2, multiplier=10)
        config = ServiceConfig(max_queue=16, brownout_enter=8, brownout_exit=3)
        door, _ = run_both(resources, requests, config, defer=False)
        assert any(
            o.reason == "brownout: deferred to reconciliation"
            for o in door.outcomes
        )

    def test_a_float_clock_matches_the_reference(self):
        """Float arrival times: gate 3 adds the two costs in turn, as the
        reference does, instead of their exact sum."""
        resources, requests = flash_crowd_requests(1, multiplier=10)
        floated = []
        for request in requests:
            part = request.requirement.components[0]
            window = Interval(
                float(part.start) + 0.1, float(part.deadline) + 0.1
            )
            component = ComplexRequirement(
                part.phases, window, label=part.label
            )
            floated.append(
                ServiceRequest(
                    request.label,
                    ConcurrentRequirement((component,), window),
                    float(request.arrival) + 0.1,
                )
            )
        config = ServiceConfig(max_queue=16, brownout_enter=8, brownout_exit=3)
        door, _ = run_both(resources, floated, config)
        assert isinstance(door.outcomes[-1].decided_at, float)

    def test_gate_3_rounds_a_float_clock_as_the_reference(self):
        """At t=0.2, ``t + 1/50 + 1/4`` rounds to 0.47 and ``t + 27/100``
        to 0.47000000000000003: a deadline at the latter passes gate 3
        only when the costs are added in turn."""
        t = 0.2
        deadline = t + (SCREEN_COST + Fraction(1, 4))
        assert t + SCREEN_COST + Fraction(1, 4) < deadline
        request = ServiceRequest(
            "edge",
            _concurrent([([Demands({cpu("n0"): 1})], t, deadline, "edge")],
                        (t, deadline)),
            t,
        )
        resources = ResourceSet.of(term(100, cpu("n0"), 0, 10))
        door, _ = run_both(resources, [request], ServiceConfig())
        assert door.outcomes[0].reason != SHED_STALE_DEQUEUE


class TestStalledEnclaves:
    @pytest.mark.parametrize("policy", ["deadline", "tail-drop"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_outcomes_and_fingerprint_match_the_reference(self, seed, policy):
        resources, requests, joins, stalls = stalled_enclave_stream(seed)
        config = ServiceConfig(
            breaker_failures=2, shed_policy=policy, seed=seed
        )
        door, door_trace = run_both(
            resources, requests, config, joins=joins, stalls=stalls
        )
        kinds = _kinds(door)
        assert SHED_BREAKER_OPEN in kinds
        # Stalls pushed the estimate up and nominal checks pulled it back
        # down: the EWMA took the full update both ways, and the
        # shortcut while it sat at the nominal cost.
        latencies = [door.config.check_cost] + [
            state[3] for state in door_trace if isinstance(state, tuple)
        ]
        steps = list(zip(latencies, latencies[1:]))
        assert any(after > before for before, after in steps)
        assert any(after < before for before, after in steps)
        assert any(after == before == config.check_cost for before, after in steps)


class Checker:
    """A picklable ``checker``/``prober`` over a controller (the
    closures of :meth:`AdmissionFrontDoor.for_controller` are not)."""

    def __init__(self, controller: AdmissionController, *, probe=False) -> None:
        self.controller = controller
        self.probe = probe

    def __call__(self, requirement, now):
        if now > self.controller.now:
            self.controller.advance_to(now)
        if self.probe:
            return self.controller.can_admit(requirement)
        return self.controller.admit(requirement)

    def slack(self) -> ResourceSet:
        return self.controller.expiring_slack


class TestDerivedStateIsNotPickled:
    def _door(self):
        resources, requests = flash_crowd_requests(0, multiplier=10)
        config = ServiceConfig(max_queue=16, brownout_enter=8, brownout_exit=3)
        checker = Checker(AdmissionController(resources, align=1))
        door = AdmissionFrontDoor(
            checker,
            checker.slack,
            config,
            prober=Checker(checker.controller, probe=True),
            verify_brownout=True,
        )
        return door, requests

    def test_state_leaves_out_the_derived_attributes(self):
        door, requests = self._door()
        for request in requests[:40]:
            door.offer(request)
            door.reconcile(request.arrival)
        state = door.__getstate__()
        assert not {"_dequeue_cost", "_slow_threshold", "_drained_at"} & set(state)
        assert list(state) == [
            name for name in door.__dict__ if name in state
        ]
        restored = pickle.loads(pickle.dumps(door))
        assert restored._drained_at is None
        assert restored._dequeue_cost == SCREEN_COST + door.config.check_cost
        assert restored._slow_threshold == door.config.slow_threshold
        assert pickle.dumps(restored) == pickle.dumps(door)

    @pytest.mark.parametrize("at", [1, 60, 130])
    def test_a_restored_door_decides_as_the_uninterrupted_one(self, at):
        door, requests = self._door()
        whole, _ = drive(door, requests)
        door, requests = self._door()
        resumed, _ = drive(door, requests, pickle_at=at)
        assert_same_trace(resumed, whole)


# ----------------------------------------------------------------------
# The pieces, one by one
# ----------------------------------------------------------------------
def _concurrent(parts, window):
    components = tuple(
        ComplexRequirement(phases, Interval(start, end), label=label)
        for phases, start, end, label in parts
    )
    return ConcurrentRequirement(components, Interval(*window))


def _assert_same_requirement(clipped, reference, original):
    assert clipped == reference
    assert type(clipped.window.start) is type(reference.window.start)
    for got, want, part in zip(
        clipped.components, reference.components, original.components
    ):
        assert got == want and got.label == want.label
        assert type(got.start) is type(want.start)
        assert type(got.deadline) is type(want.deadline)
        assert got.window is not part.window
        for phase, source in zip(got.phases, part.phases):
            assert phase == source and phase is not source
    assert clipped.total_demands == reference.total_demands
    # Alone, and beside the original (pickle memo sharing would show).
    assert pickle.dumps(clipped) == pickle.dumps(reference)
    assert pickle.dumps((original, clipped)) == pickle.dumps(
        (original, reference)
    )


class TestClipStart:
    A, B = cpu("a"), cpu("b")

    @pytest.mark.parametrize(
        "start, now",
        [
            (5, Fraction(5)),
            (Fraction(5), 5),
            (5.0, 5),
            (5, 5.0),
            (Fraction(5), 5.0),
        ],
        ids=["int-vs-Fraction", "Fraction-vs-int", "float-vs-int",
             "int-vs-float", "Fraction-vs-float"],
    )
    def test_a_mixed_type_tie_keeps_maxs_operand(self, start, now):
        original = _concurrent(
            [([Demands({self.A: 2})], start, 12, "tie")], (start, 12)
        )
        clipped = clip_start(original, now)
        reference = _reference_clip_start(original, now)
        _assert_same_requirement(clipped, reference, original)
        assert type(clipped.components[0].start) is type(max(start, now))

    def test_components_before_and_after_now(self):
        original = _concurrent(
            [
                ([Demands({self.A: 2}), Demands({self.B: 1})], 0, 10, "x"),
                ([Demands({self.B: 3})], Fraction(7, 2), 9, "y"),
                ([Demands({self.A: 1})], 2, Fraction(19, 2), "z"),
            ],
            (0, 10),
        )
        for now in (0, 1, Fraction(5, 2), Fraction(7, 2), 4, Fraction(17, 2)):
            _assert_same_requirement(
                clip_start(original, now),
                _reference_clip_start(original, now),
                original,
            )

    def test_cached_totals_carry_over(self):
        original = _concurrent(
            [([Demands({self.A: 2}), Demands({self.A: 1})], 0, 10, "t")],
            (0, 10),
        )
        total = original.total_demands  # cached on the original
        clipped = clip_start(original, 3)
        assert clipped.total_demands == total
        assert clipped.components[0].total_demands == Demands({self.A: 3})

    def test_random_requirements(self):
        rng = random.Random(38)
        for _ in range(200):
            deadline = rng.randint(4, 30)
            parts = []
            for index in range(rng.randint(1, 3)):
                start = rng.choice(
                    [rng.randint(0, deadline - 1),
                     Fraction(rng.randint(0, 2 * deadline - 2), 2)]
                )
                end = rng.randint(int(start) + 1, deadline)
                phases = [
                    Demands({rng.choice([self.A, self.B]): rng.randint(1, 5)})
                    for _ in range(rng.randint(1, 3))
                ]
                parts.append((phases, start, end, f"r{index}"))
            original = _concurrent(parts, (0, deadline))
            earliest = min(part.deadline for part in original.components)
            now = rng.choice(
                [rng.randint(0, earliest - 1),
                 Fraction(rng.randint(0, 4 * earliest - 1), 4)]
            )
            _assert_same_requirement(
                clip_start(original, now),
                _reference_clip_start(original, now),
                original,
            )


class TestLatencyEwma:
    @pytest.mark.parametrize("initial", [Fraction(1, 4), 1, Fraction(7, 3)])
    def test_observe_is_the_full_update(self, initial):
        rng = random.Random(7)
        ewma = LatencyEwma(EWMA_ALPHA, initial)
        expected = Fraction(initial)
        costs = [initial] * 5 + [
            rng.choice([initial, Fraction(1, 4), 8, Fraction(3, 2)])
            for _ in range(200)
        ]
        for count, cost in enumerate(costs, 1):
            expected = _reference_ewma_update(Fraction(EWMA_ALPHA), expected, cost)
            value = ewma.observe(cost)
            assert value == expected and type(value) is Fraction
            assert ewma.observations == count


class TestRecords:
    def test_trusted_interval_is_the_constructed_one(self):
        for start, end in [(0, 1), (Fraction(1, 3), 2), (1.5, math.inf), (3, 3)]:
            made, built = trusted_interval(start, end), Interval(start, end)
            assert made == built and hash(made) == hash(built)
            assert pickle.dumps(made) == pickle.dumps(built)

    def test_trusted_request_and_outcome_are_the_constructed_ones(self):
        requirement = _concurrent(
            [([Demands({cpu("a"): 1})], 0, 4, "r")], (0, 4)
        )
        made = _request("r", requirement, Fraction(1, 2), "a", None)
        built = ServiceRequest("r", requirement, Fraction(1, 2), "a")
        assert made == built and hash(made) == hash(built)
        assert pickle.dumps(made) == pickle.dumps(built)
        values = ("r", "a", 1, Fraction(5, 4), SHED, "why", 0, None, True)
        outcome = _outcome(*values)
        built = ServiceOutcome(*values)
        assert outcome == built and outcome.log_entry() == built.log_entry()
        assert pickle.dumps(outcome) == pickle.dumps(built)
