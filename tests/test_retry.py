"""Unit tests for retrying admission (late admission on new frontiers)."""

from __future__ import annotations

import pytest

from repro.baselines import OptimisticAdmission, RetryingPolicy, RotaAdmission
from repro.baselines.retry import MAX_RETRIES
from repro.computation import ComplexRequirement, Demands
from repro.intervals import Interval
from repro.resources import ResourceSet, term
from repro.system import OpenSystemSimulator, ReservationPolicy, arrival, resource_join


def creq(phases, s, d, label):
    return ComplexRequirement(phases, Interval(s, d), label=label)


class TestRetryingPolicyUnit:
    def test_rejection_queues(self, cpu1):
        policy = RetryingPolicy(RotaAdmission())
        requirement = creq([Demands({cpu1: 10})], 0, 10, "j")
        from repro.computation import ConcurrentRequirement

        bundle = ConcurrentRequirement((requirement,), requirement.window)
        assert not policy.decide(bundle, 0).admitted
        assert [label for label, _ in policy.retry_candidates(0)] == ["j"]

    def test_expired_candidates_dropped(self, cpu1):
        policy = RetryingPolicy(RotaAdmission())
        from repro.computation import ConcurrentRequirement

        requirement = creq([Demands({cpu1: 10})], 0, 5, "j")
        bundle = ConcurrentRequirement((requirement,), requirement.window)
        policy.decide(bundle, 0)
        assert policy.retry_candidates(4) != []
        assert policy.retry_candidates(5) == []
        assert policy.retry_candidates(4) == []  # dropped for good

    def test_retry_budget(self, cpu1):
        policy = RetryingPolicy(RotaAdmission())
        from repro.computation import ConcurrentRequirement

        requirement = creq([Demands({cpu1: 10})], 0, 100, "j")
        bundle = ConcurrentRequirement((requirement,), requirement.window)
        policy.decide(bundle, 0)          # initial rejection -> queued
        for retry in range(1, MAX_RETRIES):
            policy.decide(bundle, retry)
        assert [label for label, _ in policy.retry_candidates(0)] == ["j"]
        policy.decide(bundle, MAX_RETRIES)  # budget exhausted
        assert policy.retry_candidates(0) == []

    def test_name_decorated(self):
        assert RetryingPolicy(RotaAdmission()).name == "rota+retry"
        assert RetryingPolicy(OptimisticAdmission()).name == "optimistic+retry"


class TestRetryInSimulation:
    def test_late_admission_after_join(self, cpu1):
        """Rejected at t=0 (no resources), admitted when capacity joins at
        t=3, completes on time — the 'new frontiers' behaviour."""
        policy = RetryingPolicy(RotaAdmission())
        simulator = OpenSystemSimulator(
            policy,
            initial_resources=ResourceSet.empty(),
            allocation_policy=ReservationPolicy(),
        )
        simulator.schedule(
            arrival(0, creq([Demands({cpu1: 8})], 0, 12, "hopeful")),
            resource_join(3, ResourceSet.of(term(2, cpu1, 3, 12))),
        )
        report = simulator.run(12)
        record = report.record_of("hopeful")
        assert record.admitted
        assert record.completed
        assert "hopeful" in policy.late_admissions
        assert report.missed == 0

    def test_without_retry_the_job_stays_rejected(self, cpu1):
        simulator = OpenSystemSimulator(
            RotaAdmission(),
            initial_resources=ResourceSet.empty(),
            allocation_policy=ReservationPolicy(),
        )
        simulator.schedule(
            arrival(0, creq([Demands({cpu1: 8})], 0, 12, "hopeful")),
            resource_join(3, ResourceSet.of(term(2, cpu1, 3, 12))),
        )
        report = simulator.run(12)
        assert not report.record_of("hopeful").admitted

    def test_retry_never_compromises_soundness(self, cpu1):
        """Late admissions are full Theorem 4 checks: everything admitted
        (early or late) completes."""
        policy = RetryingPolicy(RotaAdmission())
        simulator = OpenSystemSimulator(
            policy,
            initial_resources=ResourceSet.of(term(1, cpu1, 0, 30)),
            allocation_policy=ReservationPolicy(),
        )
        simulator.schedule(
            arrival(0, creq([Demands({cpu1: 20})], 0, 25, "a")),
            arrival(0, creq([Demands({cpu1: 20})], 0, 30, "b")),
            resource_join(5, ResourceSet.of(term(2, cpu1, 5, 30))),
            resource_join(10, ResourceSet.of(term(2, cpu1, 10, 30))),
        )
        report = simulator.run(30)
        assert report.missed == 0
        assert report.completed == report.admitted

    def test_hopeless_job_eventually_gives_up(self, cpu1):
        policy = RetryingPolicy(RotaAdmission())
        simulator = OpenSystemSimulator(
            policy,
            initial_resources=ResourceSet.empty(),
            allocation_policy=ReservationPolicy(),
        )
        simulator.schedule(
            arrival(0, creq([Demands({cpu1: 1000})], 0, 8, "greedy")),
            resource_join(2, ResourceSet.of(term(1, cpu1, 2, 8))),
            resource_join(9, ResourceSet.of(term(100, cpu1, 9, 20))),
        )
        report = simulator.run(20)
        record = report.record_of("greedy")
        assert not record.admitted           # deadline passed before capacity
        assert policy.retry_candidates(20) == []  # queue drained
