"""Unit tests for admission policies (ROTA vs related-work stand-ins)."""

from __future__ import annotations

import pickle

import pytest

from repro.baselines import (
    ALL_POLICIES,
    AggregateAdmission,
    CountBoundAdmission,
    OptimisticAdmission,
    RotaAdmission,
    StartPointAdmission,
)
from repro.computation import ComplexRequirement, ConcurrentRequirement, Demands
from repro.intervals import Interval
from repro.resources import ResourceSet, cpu, term
from repro.system import OpenSystemSimulator, arrival


def conc(phases, s, d, label="job"):
    part = ComplexRequirement(phases, Interval(s, d), label=label)
    return ConcurrentRequirement((part,), part.window)


@pytest.fixture
def pool(cpu1):
    return ResourceSet.of(term(5, cpu1, 0, 10))


class TestCommonBehaviour:
    @pytest.mark.parametrize("policy_cls", ALL_POLICIES)
    def test_past_deadline_rejected(self, policy_cls, pool, cpu1):
        policy = policy_cls()
        policy.observe_resources(pool, 0)
        decision = policy.decide(conc([Demands({cpu1: 1})], 0, 5), now=5)
        assert not decision.admitted

    @pytest.mark.parametrize("policy_cls", ALL_POLICIES)
    def test_a_closed_component_window_is_refused(self, policy_cls):
        """An arrival at t=4 whose first part closed at t=3 while its
        outer window runs to t=20 is refused: accommodating it would
        give that part no window left."""
        n0, n1 = cpu("n0"), cpu("n1")
        late = ConcurrentRequirement(
            (
                ComplexRequirement(
                    [Demands({n0: 1})], Interval(0, 3), label="late[0]"
                ),
                ComplexRequirement(
                    [Demands({n1: 1})], Interval(0, 20), label="late[1]"
                ),
            ),
            Interval(0, 20),
        )
        simulator = OpenSystemSimulator(
            policy_cls(),
            initial_resources=ResourceSet.of(
                term(5, n0, 0, 20), term(5, n1, 0, 20)
            ),
        )
        simulator.schedule(arrival(4, late, "late"))
        report = simulator.run(20)
        assert report.arrivals == 1
        assert report.admitted == 0

    @pytest.mark.parametrize("policy_cls", ALL_POLICIES)
    def test_no_policy_shares_an_arrival_records_total(
        self, policy_cls, pool, cpu1
    ):
        """A requirement caches its aggregate demand and the arrival's
        record holds it; a policy that kept the same object would make a
        full checkpoint pickle it once where it used to pickle two."""
        simulator = OpenSystemSimulator(policy_cls(), initial_resources=pool)
        simulator.schedule(arrival(0, conc([Demands({cpu1: 3})], 0, 8), "a"))
        report = simulator.run(10)
        (record,) = report.records
        assert record.admitted
        held = pickle.dumps((record.total_demands, simulator._admission))
        alone = pickle.dumps(
            (Demands(record.total_demands), simulator._admission)
        )
        assert held == alone

    @pytest.mark.parametrize("policy_cls", ALL_POLICIES)
    def test_names_are_distinct(self, policy_cls):
        names = {cls.name for cls in ALL_POLICIES}
        assert len(names) == len(ALL_POLICIES)


class TestOptimistic:
    def test_admits_without_resources(self, cpu1):
        policy = OptimisticAdmission()
        assert policy.decide(conc([Demands({cpu1: 999})], 0, 5), 0).admitted


class TestAggregate:
    def test_respects_totals(self, pool, cpu1):
        policy = AggregateAdmission()
        policy.observe_resources(pool, 0)
        assert policy.decide(conc([Demands({cpu1: 50})], 0, 10), 0).admitted
        # committed 50 of 50: next overlapping arrival must be rejected
        assert not policy.decide(conc([Demands({cpu1: 1})], 0, 10), 0).admitted

    def test_non_overlapping_commitments_ignored(self, cpu1):
        policy = AggregateAdmission()
        policy.observe_resources(
            ResourceSet.of(term(5, cpu1, 0, 20)), 0
        )
        assert policy.decide(conc([Demands({cpu1: 50})], 0, 10), 0).admitted
        assert policy.decide(conc([Demands({cpu1: 50})], 10, 20), 0).admitted

    def test_blind_to_ordering(self, cpu1, net12):
        """The documented unsoundness: totals fit, order does not."""
        policy = AggregateAdmission()
        policy.observe_resources(
            ResourceSet.of(term(5, cpu1, 2, 4), term(5, net12, 0, 2)), 0
        )
        # needs cpu first then network, but cpu comes second
        req = conc([Demands({cpu1: 10}), Demands({net12: 10})], 0, 4)
        assert policy.decide(req, 0).admitted  # over-admits

    def test_type_aware(self, cpu1, cpu2):
        policy = AggregateAdmission()
        policy.observe_resources(ResourceSet.of(term(5, cpu1, 0, 10)), 0)
        assert not policy.decide(conc([Demands({cpu2: 1})], 0, 10), 0).admitted


class TestCountBound:
    def test_blind_to_types(self, cpu1, cpu2):
        """The documented failure: any quantity pays for any demand."""
        policy = CountBoundAdmission()
        policy.observe_resources(ResourceSet.of(term(5, cpu2, 0, 10)), 0)
        req = conc([Demands({cpu1: 10})], 0, 10)
        assert policy.decide(req, 0).admitted  # over-admits across types

    def test_still_bounded_in_total(self, pool, cpu1):
        policy = CountBoundAdmission()
        policy.observe_resources(pool, 0)
        assert policy.decide(conc([Demands({cpu1: 50})], 0, 10), 0).admitted
        assert not policy.decide(conc([Demands({cpu1: 1})], 0, 10), 0).admitted


class TestStartPoint:
    def test_checks_instantaneous_rate(self, cpu1):
        policy = StartPointAdmission()
        policy.observe_resources(ResourceSet.of(term(5, cpu1, 0, 10)), 0)
        # one phase over (0,10): average rate 50/10 = 5 <= rate 5 -> admit
        assert policy.decide(conc([Demands({cpu1: 50})], 0, 10), 0).admitted

    def test_blind_to_commitments(self, cpu1):
        """No commitment tracking: admits the same thing twice."""
        policy = StartPointAdmission()
        policy.observe_resources(ResourceSet.of(term(5, cpu1, 0, 10)), 0)
        req = conc([Demands({cpu1: 50})], 0, 10)
        assert policy.decide(req, 0).admitted
        assert policy.decide(conc([Demands({cpu1: 50})], 0, 10, "again"), 0).admitted

    def test_blind_to_bursts(self, cpu1):
        """Under-admits when capacity arrives after the checked instant."""
        policy = StartPointAdmission()
        policy.observe_resources(ResourceSet.of(term(50, cpu1, 5, 10)), 0)
        # plenty of quantity in (5,10), but rate at t=0 is 0
        req = conc([Demands({cpu1: 10})], 0, 10)
        assert not policy.decide(req, 0).admitted


class TestRotaPolicy:
    def test_sound_and_stateful(self, pool, cpu1):
        policy = RotaAdmission()
        policy.observe_resources(pool, 0)
        assert policy.decide(conc([Demands({cpu1: 30})], 0, 10), 0).admitted
        assert policy.decide(conc([Demands({cpu1: 20})], 0, 10, "b"), 0).admitted
        assert not policy.decide(conc([Demands({cpu1: 1})], 0, 10, "c"), 0).admitted

    def test_returns_witness_schedule(self, pool, cpu1):
        policy = RotaAdmission()
        policy.observe_resources(pool, 0)
        decision = policy.decide(conc([Demands({cpu1: 30})], 0, 10), 0)
        assert decision.schedule is not None
        assert decision.schedule.finish_time <= 10

    def test_ordering_detected_unlike_aggregate(self, cpu1, net12):
        policy = RotaAdmission()
        policy.observe_resources(
            ResourceSet.of(term(5, cpu1, 2, 4), term(5, net12, 0, 2)), 0
        )
        req = conc([Demands({cpu1: 10}), Demands({net12: 10})], 0, 4)
        assert not policy.decide(req, 0).admitted  # rejects what aggregate takes

    def test_exposed_controller(self, pool, cpu1):
        policy = RotaAdmission()
        policy.observe_resources(pool, 0)
        policy.decide(conc([Demands({cpu1: 30})], 0, 10), 0)
        assert policy.controller.committed.quantity(cpu1, Interval(0, 10)) == 30
