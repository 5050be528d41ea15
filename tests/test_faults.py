"""Unit tests for the fault-injection subsystem and promise-violation
recovery (re-admission, backoff, graceful degradation)."""

from __future__ import annotations

import math

import pytest

from repro.baselines import RotaAdmission
from repro.baselines.retry import ExponentialBackoff, RetryingPolicy
from repro.computation import ComplexRequirement, ConcurrentRequirement, Demands
from repro.errors import FaultInjectionError, RecoveryError
from repro.faults import (
    FaultPlan,
    RecoveryPolicy,
    faulty_scenario,
    residual_requirement,
)
from repro.intervals import Interval
from repro.resources import ResourceSet, term
from repro.resources.located_type import LocatedType, Node
from repro.system import (
    OpenSystemSimulator,
    ReservationPolicy,
    arrival,
    node_crash,
    rate_degradation,
    resource_join,
)
from repro.system.events import ResourceRevocationEvent
from repro.analysis import assert_clean
from repro.workloads.scenarios import volunteer_scenario


def creq(phases, s, d, label):
    return ComplexRequirement(phases, Interval(s, d), label=label)


def simulator(pool, *, recovery=None, invariant_interval=0, policy=None):
    return OpenSystemSimulator(
        policy or RotaAdmission(),
        initial_resources=pool,
        allocation_policy=ReservationPolicy(),
        recovery=recovery,
        invariant_interval=invariant_interval,
    )


# ----------------------------------------------------------------------
# FaultPlan: validation, scaling, deterministic event generation
# ----------------------------------------------------------------------

class TestFaultPlan:
    def test_benign_by_default(self):
        assert FaultPlan().is_benign
        assert not FaultPlan(crash_rate=0.1).is_benign

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"crash_rate": -0.1},
            {"straggler_rate": -1},
            {"revocation_rate": 1.5},
            {"revocation_rate": -0.1},
            {"revocation_rate": float("inf")},
            {"straggler_rate": float("inf")},
            {"seed": 1.5},
            {"revocation_rate": float("nan")},
            # wrong types and non-finite rates fail at construction with
            # the plan's own error, never a bare TypeError or later on
            {"crash_rate": "0.1"},
            {"crash_rate": float("nan")},
            {"crash_rate": float("inf")},
            {"crash_rate": True},
            {"straggler_rate": float("nan")},
            {"revocation_rate": "0.5"},
            {"crash_rate": None},
            {"straggler_rate": True},
            {"revocation_rate": True},
            {"seed": "a"},
            {"seed": True},
            {"seed": -1},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(FaultInjectionError):
            FaultPlan(**kwargs)

    def test_scaled_multiplies_and_clamps(self):
        plan = FaultPlan(crash_rate=0.1, revocation_rate=0.4, straggler_rate=0.2)
        doubled = plan.scaled(2)
        assert doubled.crash_rate == pytest.approx(0.2)
        assert doubled.revocation_rate == pytest.approx(0.8)
        assert plan.scaled(5).revocation_rate == 1.0  # clamped
        assert plan.scaled(0).is_benign
        with pytest.raises(FaultInjectionError):
            plan.scaled(-1)

    def test_events_are_deterministic(self):
        plan = FaultPlan(seed=9, crash_rate=0.1, straggler_rate=0.1)
        scenario = volunteer_scenario(3)
        nodes = sorted(
            {lt.location for lt in scenario.initial_resources.located_types
             if hasattr(lt.location, "name")},
            key=str,
        )
        first = plan.events(horizon=50, locations=nodes)
        second = plan.events(horizon=50, locations=nodes)
        assert [(e.time, type(e).__name__) for e in first] == [
            (e.time, type(e).__name__) for e in second
        ]
        assert all(1 <= e.time < 50 for e in first)

    def test_events_horizon_validated(self):
        with pytest.raises(FaultInjectionError):
            FaultPlan().events(horizon=0, locations=())

    def test_benign_plan_injects_nothing(self):
        scenario = volunteer_scenario(3)
        faulty = faulty_scenario(scenario, FaultPlan(seed=1))
        assert faulty.events == list(scenario.events)
        assert faulty.horizon == scenario.horizon
        assert "+faults@1" in faulty.name

    def test_faulty_scenario_injects_and_preserves_original(self):
        scenario = volunteer_scenario(3)
        before = list(scenario.events)
        plan = FaultPlan(seed=5, crash_rate=0.05, revocation_rate=0.4,
                         straggler_rate=0.03)
        faulty = faulty_scenario(scenario, plan)
        assert len(faulty.events) > len(before)
        assert list(scenario.events) == before  # never mutated


class TestFaultEventHelpers:
    def test_node_crash_accepts_name(self):
        event = node_crash(3, "l1")
        assert event.location.name == "l1"

    @pytest.mark.parametrize("factor", [1.0, 1.5, -0.1])
    def test_degradation_factor_validated(self, factor):
        with pytest.raises(FaultInjectionError):
            rate_degradation(3, "l1", factor)

    def test_degradation_accepts_half(self):
        event = rate_degradation(3, "l1", 0.5)
        assert float(event.factor) == 0.5


# ----------------------------------------------------------------------
# Backoff and recovery-policy configuration
# ----------------------------------------------------------------------

class TestExponentialBackoff:
    def test_caps_and_grows(self):
        backoff = ExponentialBackoff(base=1, factor=2.0, cap=16)
        assert [backoff.delay(k) for k in range(6)] == [1, 2, 4, 8, 16, 16]

    @pytest.mark.parametrize(
        "kwargs",
        [{"base": 0}, {"cap": 0}, {"base": 4, "cap": 2}, {"factor": 0.5}],
    )
    def test_validation(self, kwargs):
        with pytest.raises(RecoveryError):
            ExponentialBackoff(**kwargs)


class TestRecoveryPolicy:
    def test_max_attempts_validated(self):
        with pytest.raises(RecoveryError):
            RecoveryPolicy(max_attempts=0)

    @pytest.mark.parametrize(
        "max_attempts", [2.5, True, math.nan, math.inf, "3", None]
    )
    def test_max_attempts_must_be_a_count(self, max_attempts):
        with pytest.raises(RecoveryError, match="max_attempts"):
            RecoveryPolicy(max_attempts=max_attempts)

    def test_next_offer_delay_schedule(self):
        policy = RecoveryPolicy(backoff=ExponentialBackoff(base=1, cap=8))
        assert policy.next_offer_delay(1) == 1
        assert policy.next_offer_delay(2) == 2
        assert policy.next_offer_delay(4) == 8  # capped


def test_residual_requirement_needs_unfinished_components():
    with pytest.raises(RecoveryError):
        residual_requirement([], 4, "ghost")


# ----------------------------------------------------------------------
# End-to-end recovery outcomes
# ----------------------------------------------------------------------

class TestRecoveryOutcomes:
    def test_crash_then_rejoin_recovers(self, cpu1):
        """Crash kills the promise; a later join re-admits the residual."""
        pool = ResourceSet.of(term(2, cpu1, 0, 30))
        sim = simulator(pool, recovery=RecoveryPolicy())
        sim.schedule(
            arrival(0, creq([Demands({cpu1: 20})], 0, 30, "phoenix")),
            node_crash(4, "l1"),
            resource_join(6, ResourceSet.of(term(2, cpu1, 6, 30))),
        )
        report = sim.run(30)
        record = report.record_of("phoenix")
        assert record.violated_at == 4
        assert record.recovered and record.completed
        assert record.outcome == "recovered"
        assert record.recovery_attempts >= 1
        assert report.recovered == 1
        assert_clean(report, allow_revocation=True)

    def test_unrecoverable_crash_abandons_with_salvage(self, cpu1):
        pool = ResourceSet.of(term(2, cpu1, 0, 10))
        sim = simulator(pool, recovery=RecoveryPolicy())
        sim.schedule(
            arrival(0, creq([Demands({cpu1: 18})], 0, 10, "doomed")),
            node_crash(4, "l1"),
        )
        report = sim.run(10)
        record = report.record_of("doomed")
        assert record.outcome == "abandoned"
        assert not record.missed and not record.completed
        assert record.salvaged == pytest.approx(8.0)  # 2/s for 4s
        assert report.abandoned == 1
        assert_clean(report, allow_revocation=True)

    def test_backoff_reoffer_after_a_component_deadline_abandons(self):
        """A backoff re-offer that lands after one component's deadline
        (t=4) but inside the arrival's window is refused as late, and the
        victim is abandoned after its last offer, not crashed on."""
        n0, n1 = LocatedType("cpu", Node("n0")), LocatedType("cpu", Node("n1"))
        pool = ResourceSet.of(term(2, n0, 0, 40), term(2, n1, 0, 40))
        job = ConcurrentRequirement(
            (
                creq([Demands({n0: 4})], 0, 4, "a"),
                creq([Demands({n1: 10})], 0, 20, "b"),
            ),
            Interval(0, 20),
        )
        sim = simulator(pool, recovery=RecoveryPolicy(max_attempts=3))
        sim.schedule(
            arrival(0, job, "job"),
            ResourceRevocationEvent(
                time=1, resources=ResourceSet.of(term(2, n0, 1, 4))
            ),
        )
        report = sim.run(40)
        record = report.record_of("job")
        assert record.violated_at == 1
        assert record.outcome == "abandoned"
        assert record.recovery_attempts == 3

    def test_without_recovery_victim_misses_but_is_detected(self, cpu1):
        """No RecoveryPolicy: detection still records the violation, the
        victim stays accommodated, and the miss is scored honestly."""
        pool = ResourceSet.of(term(2, cpu1, 0, 10))
        sim = simulator(pool)  # recovery=None
        sim.schedule(
            arrival(0, creq([Demands({cpu1: 18})], 0, 10, "honest")),
            node_crash(4, "l1"),
        )
        report = sim.run(10)
        record = report.record_of("honest")
        assert record.violated_at == 4
        assert record.outcome == "missed"
        assert not record.abandoned
        assert report.trace.violated_labels == ("honest",)

    def test_straggler_slows_but_need_not_kill(self, cpu1):
        pool = ResourceSet.of(term(4, cpu1, 0, 10))
        sim = simulator(pool, recovery=RecoveryPolicy())
        sim.schedule(
            arrival(0, creq([Demands({cpu1: 10})], 0, 10, "tortoise")),
            rate_degradation(2, "l1", 0.5),
        )
        report = sim.run(10)
        record = report.record_of("tortoise")
        assert record.outcome == "completed"  # slack absorbed the fault
        lost = report.trace.lost_totals("degradation")
        assert float(lost[cpu1]) == pytest.approx(16.0)  # 2/s over (2, 10)
        assert_clean(report, allow_revocation=True)

    def test_every_outcome_is_terminal_under_faults(self):
        plan = FaultPlan(seed=5, crash_rate=0.03, revocation_rate=0.3,
                         straggler_rate=0.02)
        scenario = faulty_scenario(volunteer_scenario(3), plan)
        sim = simulator(scenario.initial_resources, recovery=RecoveryPolicy())
        sim.schedule(*scenario.events)
        report = sim.run(scenario.horizon)
        terminal = {"completed", "recovered", "missed", "abandoned", "rejected"}
        for record in report.records:
            # Only work whose deadline lies past the horizon may still be
            # in flight; everything else must be settled.
            if record.window.end <= scenario.horizon:
                assert record.outcome in terminal, record
        assert_clean(report, allow_revocation=True)

    def test_midrun_invariant_holds_under_faults(self):
        plan = FaultPlan(seed=7, crash_rate=0.05, revocation_rate=0.5,
                         straggler_rate=0.05)
        scenario = faulty_scenario(volunteer_scenario(4), plan)
        sim = OpenSystemSimulator(
            RetryingPolicy(RotaAdmission()),
            initial_resources=scenario.initial_resources,
            allocation_policy=ReservationPolicy(),
            recovery=RecoveryPolicy(),
            invariant_interval=1,  # check conservation every slice
        )
        sim.schedule(*scenario.events)
        report = sim.run(scenario.horizon)  # raises on any mid-run imbalance
        assert_clean(report, allow_revocation=True)


# ----------------------------------------------------------------------
# Determinism: same seed + FaultPlan => identical traces
# ----------------------------------------------------------------------

class TestDeterminism:
    def test_identical_runs_identical_traces(self):
        plan = FaultPlan(seed=5, crash_rate=0.03, revocation_rate=0.3,
                         straggler_rate=0.02)
        # Generate once: workload labels come from a process-global
        # counter, so determinism is a property of (events, simulator),
        # not of regenerating the scenario.
        scenario = faulty_scenario(volunteer_scenario(3), plan)

        def run_once():
            sim = OpenSystemSimulator(
                RetryingPolicy(RotaAdmission()),
                initial_resources=scenario.initial_resources,
                allocation_policy=ReservationPolicy(),
                recovery=RecoveryPolicy(),
            )
            sim.schedule(*scenario.events)
            return sim.run(scenario.horizon)

        first, second = run_once(), run_once()
        assert list(first.trace.timeline()) == list(second.trace.timeline())
        assert first.trace.losses == second.trace.losses
        assert first.trace.violations == second.trace.violations
        assert [(r.label, r.outcome) for r in first.records] == [
            (r.label, r.outcome) for r in second.records
        ]
        assert first.consumed == second.consumed


class TestRecoveryInformsAdmission:
    """``pipeline`` seed 4 under ``FaultPlan(seed=7, crash_rate=0.05)``
    admits nothing with recovery on, by design.  The plan crashes
    ``src`` at t=7 and ``dst`` at t=33, and ``pipe0``..``pipe16`` are
    refused even without faults.  With recovery the simulator reports
    each loss through ``observe_loss``, so the policy refuses work on
    dead nodes; without recovery the policy is not told, admits ten
    arrivals onto dead capacity, and every one is violated."""

    class _Spy(RotaAdmission):
        def __init__(self):
            super().__init__()
            self.losses = []

        def observe_loss(self, lost, now):
            self.losses.append(now)
            return super().observe_loss(lost, now)

    def _run(self, *, faults, recover):
        from repro.workloads.scenarios import pipeline_scenario

        scenario = pipeline_scenario(4)
        if faults:
            scenario = faulty_scenario(
                scenario, FaultPlan(seed=7, crash_rate=0.05)
            )
        policy = self._Spy()
        sim = OpenSystemSimulator(
            policy,
            initial_resources=scenario.initial_resources,
            allocation_policy=ReservationPolicy(),
            recovery=RecoveryPolicy() if recover else None,
        )
        sim.schedule(*scenario.events)
        return sim.run(scenario.horizon), policy

    def test_without_faults_the_first_admission_is_pipe17(self):
        report, policy = self._run(faults=False, recover=True)
        admitted = [r for r in report.records if r.admitted]
        assert (report.arrivals, report.admitted, report.completed) == (33, 10, 10)
        assert (admitted[0].label, admitted[0].arrival_time) == ("pipe17", 43)
        assert policy.losses == []

    def test_unrecovered_faults_admit_onto_dead_capacity(self):
        report, policy = self._run(faults=True, recover=False)
        assert (report.admitted, report.completed, report.missed) == (10, 0, 10)
        assert len(report.violations) == 10
        assert policy.losses == []

    def test_recovery_tells_the_policy_and_it_refuses(self):
        report, policy = self._run(faults=True, recover=True)
        assert (report.arrivals, report.admitted) == (33, 0)
        assert policy.losses == [7, 33]
