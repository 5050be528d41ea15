"""The admission front door: config, queues, breakers, brownout, gates.

Structure mirrors the service package: unit tests per component, then
gate-by-gate front-door behaviour on a hand-built controller, then the
integration surfaces (policy pickling, simulator conservation, metrics).
"""

from __future__ import annotations

import pickle
from fractions import Fraction

import pytest

from repro.backoff import Backoff
from repro.computation import ComplexRequirement, ConcurrentRequirement, Demands
from repro.decision import AdmissionController
from repro.errors import ServiceConfigError, ServiceError
from repro.intervals import Interval
from repro.resources import ResourceSet, cpu, term
from repro.service import (
    AdmissionFrontDoor,
    BreakerState,
    BrownoutController,
    CircuitBreaker,
    EnclaveLane,
    FrontDoorPolicy,
    LatencyEwma,
    ServiceConfig,
    ServiceReport,
    ServiceRequest,
    serve,
)
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
)


def requirement(node: str, amount: int, start, deadline, label="req"):
    window = Interval(start, deadline)
    component = ComplexRequirement(
        [Demands({cpu(node): amount})], window, label=label
    )
    return ConcurrentRequirement((component,), window)


def pool(rate=5, node="n0", horizon=200):
    return ResourceSet.of(term(rate, cpu(node), 0, horizon))


# ----------------------------------------------------------------------
# Config
# ----------------------------------------------------------------------

class TestServiceConfig:
    def test_defaults_are_valid_and_exact(self):
        config = ServiceConfig()
        assert config.check_cost == Fraction(1, 4)
        assert config.slow_threshold == 2

    @pytest.mark.parametrize("kwargs", [
        {"max_queue": 0},
        {"shed_policy": "coin-flip"},
        {"check_cost": 0},
        {"brownout_enter": 4, "brownout_exit": 8},
        {"brownout_enter": 4, "brownout_exit": 4},
        {"breaker_failures": 0},
        {"breaker_probes": 0},
        {"check_cost": Fraction(1, 100)},  # undercuts the 1/50 screen
        {"stall_cost": Fraction(1, 8)},  # below check_cost
        # bools are not counts, though isinstance(True, int) holds
        {"max_queue": True},
        {"breaker_failures": True},
        {"breaker_probes": True},
        {"brownout_enter": True},
        {"brownout_exit": True},
        # non-finite durations must not escape as bare ValueError or
        # OverflowError from the exact-arithmetic coercion
        {"check_cost": float("nan")},
        {"check_cost": float("-inf")},
        {"stall_cost": float("nan")},
        {"stall_cost": float("-inf")},
        {"brownout_latency": float("nan")},
        {"check_cost": float("inf")},
        {"stall_cost": float("inf")},
        {"brownout_latency": float("inf")},
    ])
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ServiceConfigError):
            ServiceConfig(**kwargs)

    def test_from_document_coerces_floats_to_exact(self):
        config = ServiceConfig.from_document({"check_cost": 0.25})
        assert config.check_cost == Fraction(1, 4)
        assert isinstance(config.check_cost, (int, Fraction))

    def test_from_document_rejects_unknown_keys(self):
        # rpc_timeout/rpc_attempts are not fields: the door has no network;
        # the cost model's fixed parts are module constants
        for key in (
            "max_que", "rpc_timeout", "rpc_attempts", "screen_cost",
            "ewma_alpha", "slow_check_factor", "criticality_laxity",
        ):
            with pytest.raises(
                ServiceConfigError, match="unknown service config"
            ):
                ServiceConfig.from_document({key: 8})

    def test_from_document_nested_backoff(self):
        config = ServiceConfig.from_document(
            {"backoff": {"base": 2, "cap": 32, "jitter": 0.1, "seed": 3}}
        )
        assert config.backoff == Backoff(base=2, cap=32, jitter=0.1, seed=3)

    def test_from_document_rejects_unknown_backoff_keys(self):
        with pytest.raises(ServiceConfigError, match="unknown backoff"):
            ServiceConfig.from_document({"backoff": {"bsae": 2}})

    def test_from_document_rejects_bad_backoff_values(self):
        # json.loads parses NaN, so a document can carry one
        for base in (-1, float("nan"), True):
            with pytest.raises(ServiceConfigError, match="bad backoff"):
                ServiceConfig.from_document({"backoff": {"base": base}})


# ----------------------------------------------------------------------
# Queue primitives
# ----------------------------------------------------------------------

class TestLatencyEwma:
    def test_converges_toward_observations_exactly(self):
        ewma = LatencyEwma(Fraction(1, 2), Fraction(1, 4))
        ewma.observe(Fraction(3, 4))
        assert ewma.value == Fraction(1, 2)
        ewma.observe(Fraction(3, 2))
        assert ewma.value == Fraction(1, 1)
        assert ewma.observations == 2

    def test_initial_value_is_the_seeded_estimate(self):
        assert LatencyEwma(Fraction(1, 4), 2).value == 2


class TestEnclaveLane:
    def test_depth_full_and_drain(self):
        lane = EnclaveLane("n0", max_queue=2)
        assert lane.depth == 0 and not lane.full
        lane.push(3)
        lane.push(5)
        assert lane.depth == 2 and lane.full
        assert lane.drain(3) == 1
        assert lane.depth == 1 and not lane.full
        assert lane.drain(10) == 1
        assert lane.depth == 0


# ----------------------------------------------------------------------
# Circuit breaker
# ----------------------------------------------------------------------

def make_breaker(**kwargs):
    defaults = dict(
        failures=2, probes=2, backoff=Backoff(base=4, cap=64, jitter=0.0)
    )
    defaults.update(kwargs)
    return CircuitBreaker("n0", **defaults)


def reopens_at(breaker, at) -> bool:
    """Whether the open breaker accepts again exactly from ``at`` on, as
    its read-only :meth:`~CircuitBreaker.accepting` answers."""
    just_before = at - Fraction(1, 1 << 20)
    return not breaker.accepting(just_before) and breaker.accepting(at)


class TestCircuitBreaker:
    def test_opens_after_consecutive_failures(self):
        breaker = make_breaker()
        breaker.record_failure(1)
        assert breaker.state == BreakerState.CLOSED
        breaker.record_failure(2)
        assert breaker.state == BreakerState.OPEN
        assert reopens_at(breaker, 2 + 4)
        assert breaker.transitions == [(2, "closed", "open")]

    def test_success_resets_the_failure_streak(self):
        breaker = make_breaker()
        breaker.record_failure(1)
        breaker.record_success(2)
        breaker.record_failure(3)
        assert breaker.state == BreakerState.CLOSED

    def test_accepting_is_read_only_but_allow_transitions(self):
        breaker = make_breaker(failures=1)
        breaker.record_failure(0)
        assert breaker.state == BreakerState.OPEN
        assert not breaker.accepting(3)
        assert breaker.accepting(4)
        assert breaker.state == BreakerState.OPEN  # accepting() mutated nothing
        assert not breaker.allow(3)
        assert breaker.allow(4)
        assert breaker.state == BreakerState.HALF_OPEN

    def test_half_open_closes_after_probe_successes(self):
        breaker = make_breaker(failures=1, probes=2)
        breaker.record_failure(0)
        breaker.allow(4)
        breaker.record_success(5)
        assert breaker.state == BreakerState.HALF_OPEN
        breaker.record_success(6)
        assert breaker.state == BreakerState.CLOSED
        assert breaker.accepting(6)

    def test_failed_probe_reopens_with_longer_backoff(self):
        breaker = make_breaker(failures=1)
        breaker.record_failure(0)       # open, attempt 0: retry at 0 + 4
        assert reopens_at(breaker, 4)
        breaker.allow(4)                # half-open probe
        breaker.record_failure(5)       # probe failed
        assert breaker.state == BreakerState.OPEN
        assert reopens_at(breaker, 5 + 8)  # attempt 1: base * factor

    def test_closing_resets_the_backoff_ladder(self):
        breaker = make_breaker(failures=1, probes=1)
        breaker.record_failure(0)
        breaker.allow(4)
        breaker.record_success(5)       # closed again
        breaker.record_failure(6)       # re-trip
        assert reopens_at(breaker, 6 + 4)  # attempt counter was reset


# ----------------------------------------------------------------------
# Brownout controller
# ----------------------------------------------------------------------

class TestBrownout:
    def test_hysteresis_on_depth(self):
        brownout = BrownoutController(enter_depth=4, exit_depth=1)
        assert not brownout.update(0, 3, Fraction(1, 4))
        assert brownout.update(1, 4, Fraction(1, 4))
        assert brownout.active
        # Between exit and enter: stays active (no flapping).
        assert not brownout.update(2, 2, Fraction(1, 4))
        assert brownout.active
        assert brownout.update(3, 1, Fraction(1, 4))
        assert not brownout.active
        assert brownout.transitions == [(1, "enter"), (3, "exit")]
        assert brownout.entries == 1

    def test_latency_trigger(self):
        brownout = BrownoutController(enter_depth=100, exit_depth=1, latency=2)
        assert brownout.update(0, 0, Fraction(5, 2))
        assert brownout.active
        # Depth is calm but latency still hot: stay in brownout.
        assert not brownout.update(1, 0, Fraction(5, 2))
        assert brownout.update(2, 0, Fraction(1, 4))
        assert not brownout.active


# ----------------------------------------------------------------------
# Front-door gates (standalone, hand-built streams)
# ----------------------------------------------------------------------

def make_door(resources=None, config=None, **kwargs):
    controller = AdmissionController(resources or pool(), align=1)
    return AdmissionFrontDoor.for_controller(controller, config, **kwargs)


class TestFrontDoorGates:
    def test_admits_and_charges_queueing_against_the_deadline(self):
        door = make_door()
        first = door.offer(ServiceRequest("a", requirement("n0", 1, 1, 50), 1))
        second = door.offer(ServiceRequest("b", requirement("n0", 1, 1, 50), 1))
        assert first.outcome == ADMITTED
        assert second.outcome == ADMITTED
        assert second.decided_at > first.decided_at
        # The admitted schedule starts no earlier than the decision: the
        # wait was charged against the window, not silently absorbed.
        for outcome in (first, second):
            for t in outcome.schedule.consumption().terms():
                if not t.is_null:
                    assert t.window.start >= outcome.decided_at

    def test_arrivals_must_be_time_ordered(self):
        door = make_door()
        door.offer(ServiceRequest("a", requirement("n0", 1, 5, 50), 5))
        with pytest.raises(ServiceError, match="time order"):
            door.offer(ServiceRequest("b", requirement("n0", 1, 4, 50), 4))

    def test_full_lane_sheds_queue_full(self):
        door = make_door(config=ServiceConfig(max_queue=1))
        door.offer(ServiceRequest("a", requirement("n0", 1, 1, 50), 1))
        shed = door.offer(ServiceRequest("b", requirement("n0", 1, 1, 50), 1))
        assert (shed.outcome, shed.reason) == (SHED, SHED_QUEUE_FULL)

    def test_stale_deadline_shed_on_enqueue(self):
        door = make_door(config=ServiceConfig(check_cost=2))
        door.offer(ServiceRequest("a", requirement("n0", 1, 1, 50), 1))
        # Wait (2) + EWMA (2) already overshoots this deadline at 2.
        shed = door.offer(ServiceRequest("b", requirement("n0", 1, 1, 2), 1))
        assert (shed.outcome, shed.reason) == (SHED, SHED_STALE_ENQUEUE)
        assert shed.decided_at == 1  # shed instantly, no capacity consumed

    def test_early_component_deadline_shed_on_enqueue(self, monkeypatch):
        """Staleness is priced against the earliest component deadline:
        an arrival whose first component closes before the projected
        decision is shed at once, with no check charged, no EWMA sample
        and no breaker verdict for a check that never runs."""
        successes = []
        monkeypatch.setattr(
            CircuitBreaker, "record_success",
            lambda self, now: successes.append(now),
        )
        door = make_door(resources=ResourceSet.of(term(1, cpu("n0"), 0, 20)))
        early = ComplexRequirement(
            [Demands({cpu("n0"): 1})], Interval(1, Fraction(6, 5)), label="a"
        )
        late = ComplexRequirement(
            [Demands({cpu("n0"): 1})], Interval(1, 9), label="b"
        )
        latency = door.check_latency
        shed = door.offer(ServiceRequest(
            "x", ConcurrentRequirement((early, late), Interval(1, 9)), 1
        ))
        assert (shed.outcome, shed.reason) == (SHED, SHED_STALE_ENQUEUE)
        assert shed.decided_at == 1
        assert door.depth == 0
        assert door.check_latency == latency
        assert door._ewma.observations == 0
        assert successes == []

    def test_screen_shortfall_shed_on_enqueue(self):
        resources = pool() | ResourceSet.of(term(1, cpu("n1"), 0, 10))
        door = make_door(resources=resources)
        shed = door.offer(
            ServiceRequest("big", requirement("n1", 50, 1, 100), 1)
        )
        assert (shed.outcome, shed.reason) == (SHED, SHED_SCREEN_ENQUEUE)

    def test_stale_deadline_shed_on_dequeue_after_stall(self):
        door = make_door(
            config=ServiceConfig(stall_cost=8),
            stalls={"n0": [(0, 100)]},
        )
        # Gate 3 prices the check at nominal cost, so the arrival gets
        # through; the stalled check itself overruns the deadline.
        shed = door.offer(ServiceRequest("a", requirement("n0", 1, 1, 5), 1))
        assert (shed.outcome, shed.reason) == (SHED, SHED_STALE_DEQUEUE)
        assert shed.decided_at >= 5

    def test_tail_drop_skips_deadline_screens(self):
        door = make_door(config=ServiceConfig(shed_policy="tail-drop",
                                              check_cost=2))
        door.offer(ServiceRequest("a", requirement("n0", 1, 1, 50), 1))
        # Under deadline shedding this would be stale-enqueue; tail-drop
        # lets it through to the (losing) exact check instead.
        outcome = door.offer(ServiceRequest("b", requirement("n0", 1, 1, 2), 1))
        assert outcome.reason == SHED_STALE_DEQUEUE
        assert outcome.wait > 0


class TestFrontDoorBreaker:
    def make(self):
        return make_door(
            config=ServiceConfig(
                breaker_failures=1,
                stall_cost=8,
                backoff=Backoff(base=4, cap=64, jitter=0.0),
            ),
            stalls={"n0": [(0, 25)]},
        )

    def test_stall_trips_breaker_and_sheds_until_backoff_elapses(self):
        door = self.make()
        first = door.offer(ServiceRequest("a", requirement("n0", 1, 1, 60), 1))
        assert first.outcome == ADMITTED  # slow, but admitted
        breaker = door.breaker("n0")
        assert breaker.state == BreakerState.OPEN
        assert reopens_at(breaker, 9 + 4)  # opened at decided_at = 1 + 8
        shed = door.offer(ServiceRequest("b", requirement("n0", 1, 10, 60), 10))
        assert (shed.outcome, shed.reason) == (SHED, SHED_BREAKER_OPEN)

    def test_failed_probe_reopens_then_recovery_closes(self):
        door = self.make()
        door.offer(ServiceRequest("a", requirement("n0", 1, 1, 60), 1))
        # Probe at 13 hits the stall window again: reopen, longer wait.
        door.offer(ServiceRequest("b", requirement("n0", 1, 13, 80), 13))
        breaker = door.breaker("n0")
        assert breaker.state == BreakerState.OPEN
        assert reopens_at(breaker, 21 + 8)
        # The stall has cleared by 29; two fast probes close the breaker.
        door.offer(ServiceRequest("c", requirement("n0", 1, 29, 90), 29))
        door.offer(ServiceRequest("d", requirement("n0", 1, 30, 90), 30))
        assert breaker.state == BreakerState.CLOSED
        states = [(frm, to) for _, frm, to in breaker.transitions]
        assert states == [
            ("closed", "open"),
            ("open", "half-open"),
            ("half-open", "open"),
            ("open", "half-open"),
            ("half-open", "closed"),
        ]

    def test_other_enclaves_keep_flowing_while_one_is_walled_off(self):
        resources = pool() | pool(node="n1")
        door = AdmissionFrontDoor.for_controller(
            AdmissionController(resources, align=1),
            ServiceConfig(
                breaker_failures=1,
                stall_cost=8,
                backoff=Backoff(base=64, cap=64, jitter=0.0),
            ),
            stalls={"n0": [(0, 100)]},
        )
        door.offer(ServiceRequest("a", requirement("n0", 1, 1, 60), 1))
        shed = door.offer(ServiceRequest("b", requirement("n0", 1, 10, 60), 10))
        ok = door.offer(ServiceRequest("c", requirement("n1", 1, 10, 60), 10))
        assert shed.reason == SHED_BREAKER_OPEN
        assert ok.outcome == ADMITTED

    def test_half_open_probe_meets_brownout_under_stall(self):
        """The interaction pinned here: a stalled check inflates the EWMA
        past the brownout latency trigger and opens the breaker; the
        half-open probe slot is then consumed by a low-criticality
        arrival that brownout defers *before* the exact check runs — the
        breaker stays half-open, unprobed, until reconciliation resolves
        the deferral after the stall and that exact check becomes the
        successful probe."""
        door = make_door(
            config=ServiceConfig(
                breaker_failures=1,
                breaker_probes=1,
                stall_cost=8,
                brownout_latency=1,
                backoff=Backoff(base=4, cap=64, jitter=0.0),
            ),
            stalls={"n0": [(0, 12)]},
        )
        breaker = door.breaker("n0")
        # 1. The stall: slow but admitted; the EWMA climbs past the
        # latency trigger and the breaker opens.
        first = door.offer(
            ServiceRequest(
                "a", requirement("n0", 1, 1, 60), 1, criticality="high"
            )
        )
        assert first.outcome == ADMITTED
        assert breaker.state == BreakerState.OPEN
        assert reopens_at(breaker, 13)  # opened at decided_at = 1 + 8
        assert door.check_latency >= 1
        # 2. Still open: walled off at gate 1.
        walled = door.offer(
            ServiceRequest(
                "b", requirement("n0", 1, 10, 60), 10, criticality="high"
            )
        )
        assert walled.reason == SHED_BREAKER_OPEN
        # 3. Probe slot granted, then brownout (latency-triggered by the
        # stall) defers the low-criticality probe before the exact
        # check: half-open survives, unprobed.
        deferred = door.offer(
            ServiceRequest(
                "d", requirement("n0", 1, 14, 60), 14, criticality="low"
            )
        )
        assert deferred.outcome == DEFERRED
        assert door.brownout.active
        assert breaker.state == BreakerState.HALF_OPEN
        # 4. Reconciliation runs the exact check after the stall: the
        # deferral becomes the successful probe and closes it.
        resolved = door.finish(30)
        assert [o.outcome for o in resolved] == [ADMITTED]
        assert resolved[0].reconciled
        assert breaker.state == BreakerState.CLOSED
        states = [(frm, to) for _, frm, to in breaker.transitions]
        assert states == [
            ("closed", "open"),
            ("open", "half-open"),
            ("half-open", "closed"),
        ]


class TestFrontDoorBrownout:
    def make(self, **kwargs):
        resources = pool() | ResourceSet.of(term(1, cpu("n1"), 0, 10))
        return make_door(
            resources=resources,
            config=ServiceConfig(
                shed_policy="tail-drop",  # reach brownout, not the screens
                check_cost=2,
                brownout_enter=2,
                brownout_exit=1,
            ),
            **kwargs,
        )

    def fill(self, door):
        door.offer(ServiceRequest("a", requirement("n0", 1, 1, 100), 1))
        door.offer(ServiceRequest("b", requirement("n0", 1, 1, 100), 1))
        assert door.depth >= 2

    def test_screen_rejection_is_sound_and_verified(self):
        door = self.make(verify_brownout=True)
        self.fill(door)
        rejected = door.offer(
            ServiceRequest(
                "big", requirement("n1", 50, 1, 100), 1, criticality="low"
            )
        )
        assert rejected.outcome == REJECTED
        assert rejected.reason.startswith("brownout screen:")
        assert door.brownout_verified == 1

    def test_screen_pass_defers_and_reconciles_to_admission(self):
        door = self.make()
        self.fill(door)
        deferred = door.offer(
            ServiceRequest(
                "later", requirement("n0", 1, 1, 100), 1, criticality="low"
            )
        )
        assert deferred.outcome == DEFERRED
        assert door.deferred_labels == ("later",)
        # Reconcile is a no-op while brownout holds...
        assert door.reconcile(1) == []
        # ...and resolves through the exact check when pressure drops.
        resolved = door.finish(20)
        assert [o.outcome for o in resolved] == [ADMITTED]
        assert resolved[0].reconciled
        assert resolved[0].label == "later"

    def test_a_closed_component_window_is_rejected_without_a_probe(self):
        """A component whose deadline passed before the screen ran leaves
        nothing to screen or probe: the screen rejects it outright."""
        door = self.make(verify_brownout=True)
        self.fill(door)
        late = ConcurrentRequirement(
            (
                ComplexRequirement(
                    [Demands({cpu("n0"): 1})], Interval(1, 3), label="a"
                ),
                ComplexRequirement(
                    [Demands({cpu("n1"): 50})], Interval(1, 100), label="b"
                ),
            ),
            Interval(1, 100),
        )
        outcome = door.offer(
            ServiceRequest("late", late, 1, criticality="low")
        )
        assert outcome.decided_at >= 3
        assert outcome.outcome == REJECTED
        assert outcome.reason == (
            "brownout screen: a component deadline passed by "
            f"t={outcome.decided_at}"
        )
        assert door.brownout_verified == 0

    def test_high_criticality_keeps_the_exact_check_under_brownout(self):
        door = self.make()
        self.fill(door)
        outcome = door.offer(
            ServiceRequest(
                "hot", requirement("n0", 1, 1, 100), 1, criticality="high"
            )
        )
        assert outcome.outcome == ADMITTED

    def test_verify_brownout_requires_a_prober(self):
        with pytest.raises(ServiceError, match="prober"):
            AdmissionFrontDoor(
                lambda requirement, now: None,
                ResourceSet.empty,
                verify_brownout=True,
            )


# ----------------------------------------------------------------------
# Fingerprints and the serve() driver
# ----------------------------------------------------------------------

def small_stream():
    return [
        ServiceRequest(f"r{i}", requirement("n0", 2, i + 1, i + 9), i + 1)
        for i in range(10)
    ]


class TestFingerprint:
    def test_identical_runs_are_byte_identical(self):
        first = serve(small_stream(), resources=pool())
        second = serve(small_stream(), resources=pool())
        assert first.fingerprint == second.fingerprint

    def test_seed_is_part_of_the_fingerprint(self):
        first = serve(small_stream(), resources=pool(),
                      config=ServiceConfig(seed=1))
        second = serve(small_stream(), resources=pool(),
                       config=ServiceConfig(seed=2))
        assert first.fingerprint != second.fingerprint


class TestServeDriver:
    def test_report_accounts_for_every_request(self):
        report = serve(small_stream(), resources=pool())
        assert len(report.outcomes) == 10
        digest = report.summary()
        assert digest["offered"] == 10
        assert (
            digest["admitted"] + digest["rejected"] + digest["shed"] == 10
        )
        assert report.queueing_violations() == []

    def test_mid_stream_join_feeds_the_controller(self):
        requests = [
            ServiceRequest("early", requirement("n1", 3, 1, 30), 1),
            ServiceRequest("late", requirement("n1", 3, 10, 30), 10),
        ]
        joins = [(10, ResourceSet.of(term(5, cpu("n1"), 10, 40)))]
        report = serve(requests, resources=pool(), joins=joins)
        by_label = {o.label: o for o in report.outcomes}
        assert by_label["early"].outcome != ADMITTED  # nothing at n1 yet
        assert by_label["late"].outcome == ADMITTED

    def test_a_closed_component_window_is_shed_at_the_check(self):
        """A request whose component window closed before its check
        (t=3 here, the request arrives at t=4) is shed as stale, not
        clipped to an empty window: at the door already, since the
        enqueue projection prices the earliest component deadline."""
        late = ConcurrentRequirement(
            (
                ComplexRequirement(
                    [Demands({cpu("n0"): 4})], Interval(0, 3), label="a"
                ),
                ComplexRequirement(
                    [Demands({cpu("n1"): 10})], Interval(0, 20), label="b"
                ),
            ),
            Interval(0, 20),
        )
        resources = ResourceSet.of(
            term(2, cpu("n0"), 0, 40), term(2, cpu("n1"), 0, 40)
        )
        report = serve([ServiceRequest("r", late, 4)], resources=resources)
        (outcome,) = report.outcomes
        assert (outcome.outcome, outcome.reason) == (SHED, SHED_STALE_ENQUEUE)


# ----------------------------------------------------------------------
# Policy adapter: pickling, capacity walls, retry reconciliation
# ----------------------------------------------------------------------

class TestFrontDoorPolicy:
    def test_round_trips_through_pickle(self):
        policy = FrontDoorPolicy(config=ServiceConfig(seed=3))
        policy.observe_resources(pool(), 0)
        policy.decide(requirement("n0", 1, 1, 50), 1)
        clone = pickle.loads(pickle.dumps(policy))
        assert clone.name == policy.name
        assert clone.door.fingerprint() == policy.door.fingerprint()

    def test_admit_resources_walls_off_open_enclaves(self):
        policy = FrontDoorPolicy(
            config=ServiceConfig(
                breaker_failures=1,
                stall_cost=8,
                backoff=Backoff(base=64, cap=64, jitter=0.0),
            ),
            stalls={"n0": [(0, 100)]},
        )
        policy.observe_resources(pool(), 0)
        policy.decide(requirement("n0", 1, 1, 60), 1)  # trips the breaker
        joining = ResourceSet.of(term(2, cpu("n0"), 10, 50))
        accepted = policy.admit_resources(joining, 10)
        assert accepted == ResourceSet.empty()
        assert policy.shed_join_events == [(10, "n0")]
        # A healthy enclave's capacity passes through untouched.
        healthy = ResourceSet.of(term(2, cpu("n1"), 10, 50))
        assert policy.admit_resources(healthy, 10) is healthy

    def test_decision_reasons_surface_the_outcome_vocabulary(self):
        policy = FrontDoorPolicy(config=ServiceConfig(max_queue=1))
        policy.observe_resources(pool(), 0)
        first = policy.decide(requirement("n0", 1, 1, 50), 1)
        second = policy.decide(requirement("n0", 1, 1, 50), 1)
        assert first.admitted
        assert not second.admitted
        assert SHED_QUEUE_FULL in second.reason


# ----------------------------------------------------------------------
# Simulator integration: the shed leg of conservation
# ----------------------------------------------------------------------

class TestSimulatorIntegration:
    def test_shed_capacity_balances_conservation_at_every_slice(self):
        from repro.system import OpenSystemSimulator
        from repro.system.events import arrival, resource_join
        from repro.workloads import stalled_enclave_stream

        resources, requests, joins, stalls = stalled_enclave_stream(0)
        policy = FrontDoorPolicy(
            config=ServiceConfig(breaker_failures=2, seed=0),
            stalls=stalls,
            verify_brownout=True,
        )
        simulator = OpenSystemSimulator(
            policy,
            initial_resources=resources,
            invariant_interval=1,  # conservation asserted mid-run
        )
        simulator.schedule(
            *[arrival(r.arrival, r.requirement, label=r.label) for r in requests]
        )
        simulator.schedule(*[resource_join(at, j) for at, j in joins])
        report = simulator.run(60)
        assert report.trace.shed_totals()  # the breaker walled off a join
        assert report.trace.conservation_gaps(report.offered) == []


# ----------------------------------------------------------------------
# Observability
# ----------------------------------------------------------------------

class TestMetrics:
    def test_door_metrics_are_emitted_when_a_registry_is_live(self):
        from repro.observability import MetricsRegistry, use_registry

        registry = MetricsRegistry()
        with use_registry(registry):
            serve(small_stream(), resources=pool())
        names = {m["name"] for m in registry.snapshot()["metrics"]}
        assert "door_requests_total" in names
        assert "door_queue_depth" in names
        assert "door_queue_wait" in names
