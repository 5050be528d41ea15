"""Unit tests for saturating subtraction and resource revocation."""

from __future__ import annotations

import pytest

from repro.baselines import OptimisticAdmission, RotaAdmission
from repro.computation import ComplexRequirement, Demands
from repro.intervals import Interval
from repro.resources import RateProfile, ResourceSet, term
from repro.system import (
    OpenSystemSimulator,
    ReservationPolicy,
    ResourceRevocationEvent,
    arrival,
)
from repro.workloads import broken_promises, churn_events
from repro.system import Topology


def creq(phases, s, d, label):
    return ComplexRequirement(phases, Interval(s, d), label=label)


class TestSaturatingOps:
    def test_profile_saturating_sub_clamps(self):
        a = RateProfile.constant(2, Interval(0, 10))
        b = RateProfile.constant(5, Interval(4, 6))
        out = a.saturating_sub(b)
        assert out.rate_at(2) == 2
        assert out.rate_at(5) == 0
        assert out.rate_at(8) == 2

    def test_profile_saturating_sub_exact_where_dominated(self):
        a = RateProfile.constant(5, Interval(0, 10))
        b = RateProfile.constant(2, Interval(0, 10))
        assert a.saturating_sub(b) == a.subtract(b)

    def test_resource_set_saturating_minus(self, cpu1, net12):
        pool = ResourceSet.of(term(2, cpu1, 0, 10), term(2, net12, 0, 10))
        revoked = ResourceSet.of(term(5, cpu1, 4, 8))
        out = pool.saturating_minus(revoked)
        assert out.rate_at(cpu1, 2) == 2
        assert out.rate_at(cpu1, 5) == 0
        assert out.rate_at(net12, 5) == 2

    def test_saturating_minus_ignores_unknown_types(self, cpu1, net12):
        pool = ResourceSet.of(term(2, cpu1, 0, 10))
        out = pool.saturating_minus(ResourceSet.of(term(5, net12, 0, 10)))
        assert out == pool


class TestRevocationInSimulation:
    def test_revocation_starves_admitted_job(self, cpu1):
        pool = ResourceSet.of(term(2, cpu1, 0, 10))
        sim = OpenSystemSimulator(
            RotaAdmission(),
            initial_resources=pool,
            allocation_policy=ReservationPolicy(),
        )
        sim.schedule(
            arrival(0, creq([Demands({cpu1: 16})], 0, 10, "victim")),
            ResourceRevocationEvent(
                time=4, resources=ResourceSet.of(term(2, cpu1, 4, 10))
            ),
        )
        report = sim.run(10)
        record = report.record_of("victim")
        assert record.admitted          # the promise looked good at t=0
        assert record.missed            # ... and was broken at t=4

    def test_no_revocation_no_miss(self, cpu1):
        pool = ResourceSet.of(term(2, cpu1, 0, 10))
        sim = OpenSystemSimulator(
            RotaAdmission(),
            initial_resources=pool,
            allocation_policy=ReservationPolicy(),
        )
        sim.schedule(arrival(0, creq([Demands({cpu1: 16})], 0, 10, "safe")))
        report = sim.run(10)
        assert report.record_of("safe").completed

    def test_partial_revocation_partial_survival(self, cpu1):
        """Revoking half the rate delays but need not kill a slack-rich
        job."""
        pool = ResourceSet.of(term(4, cpu1, 0, 20))
        sim = OpenSystemSimulator(
            RotaAdmission(),
            initial_resources=pool,
            allocation_policy=ReservationPolicy(),
        )
        sim.schedule(
            arrival(0, creq([Demands({cpu1: 20})], 0, 20, "resilient")),
            ResourceRevocationEvent(
                time=2, resources=ResourceSet.of(term(2, cpu1, 2, 20))
            ),
        )
        report = sim.run(20)
        record = report.record_of("resilient")
        assert record.completed  # 8 by t=2, then 2/s: 12 more by t=8


class TestRevocationEdgeCases:
    def run(self, pool, *events, horizon=10):
        sim = OpenSystemSimulator(
            RotaAdmission(),
            initial_resources=pool,
            allocation_policy=ReservationPolicy(),
        )
        sim.schedule(*events)
        return sim.run(horizon)

    def test_revocation_exactly_at_slice_boundary(self, cpu1):
        """A revocation landing exactly when a slice opens takes effect
        before that slice, and the measured loss is exact."""
        pool = ResourceSet.of(term(2, cpu1, 0, 10))
        report = self.run(
            pool,
            ResourceRevocationEvent(
                time=5, resources=ResourceSet.of(term(2, cpu1, 5, 10))
            ),
        )
        assert report.trace.lost_totals("revocation") == {cpu1: 10}  # 2/s over (5,10)
        # consumed + expired + lost still balances exactly
        assert report.trace.conservation_gaps(report.offered) == []

    def test_revoking_already_departed_resource_is_noop(self, cpu1):
        """Revoking capacity whose declared interval already ended loses
        nothing and breaks nothing."""
        pool = ResourceSet.of(term(2, cpu1, 0, 4))
        report = self.run(
            pool,
            ResourceRevocationEvent(
                time=6, resources=ResourceSet.of(term(2, cpu1, 0, 4))
            ),
        )
        assert report.trace.losses == []
        assert report.trace.conservation_gaps(report.offered) == []

    def test_double_revocation_of_same_capacity(self, cpu1):
        """Revoking the same (full) capacity twice: the second event finds
        nothing left, so no phantom loss is recorded."""
        pool = ResourceSet.of(term(4, cpu1, 0, 10))
        revoked = ResourceSet.of(term(4, cpu1, 2, 10))
        report = self.run(
            pool,
            ResourceRevocationEvent(time=2, resources=revoked),
            ResourceRevocationEvent(time=3, resources=revoked),
        )
        assert report.trace.lost_totals("revocation") == {cpu1: 32}  # 4/s over (2,10)
        assert report.trace.conservation_gaps(report.offered) == []


class TestBrokenPromisesGenerator:
    def test_rate_zero_produces_nothing(self, rng):
        topo = Topology.full_mesh(3)
        sessions = churn_events(rng, topo, horizon=50)
        assert broken_promises(rng, sessions, violation_rate=0.0) == []

    def test_rate_one_violates_everything_possible(self, rng):
        topo = Topology.full_mesh(3)
        sessions = churn_events(rng, topo, horizon=80)
        violations = broken_promises(
            rng, sessions, violation_rate=1.0, min_early=1, max_early=2
        )
        assert violations
        # every violation strictly precedes its session's declared end
        ends = [
            max(t.window.end for t in v.resources.terms()) for v in violations
        ]
        assert all(v.time < end for v, end in zip(violations, ends))

    def test_rate_validated(self, rng):
        from repro.errors import WorkloadError

        with pytest.raises(WorkloadError):
            broken_promises(rng, [], violation_rate=1.5)
