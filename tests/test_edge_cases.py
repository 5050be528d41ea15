"""Edge cases and failure injection across module boundaries.

Deliberately awkward inputs: empty systems, instant deadlines, infinite
supply, fractional everything, mid-run state abuse — the inputs a
downstream user will eventually produce.
"""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from repro.baselines import OptimisticAdmission
from repro.computation import ComplexRequirement, Demands, SimpleRequirement
from repro.decision import AdmissionController, find_schedule
from repro.errors import SimulationError, TransitionError
from repro.intervals import Interval
from repro.logic import (
    accommodate,
    exists_on_some_path,
    greedy_path,
    initial_state,
    satisfy,
    step,
)
from repro.resources import RateProfile, ResourceSet, cpu, term
from repro.system import OpenSystemSimulator, arrival


def creq(phases, s, d, label="g"):
    return ComplexRequirement(phases, Interval(s, d), label=label)


class TestEmptySystems:
    def test_empty_controller_rejects_everything(self, cpu1):
        controller = AdmissionController()
        assert not controller.can_admit(creq([Demands({cpu1: 1})], 0, 10)).admitted

    def test_empty_simulation_runs(self):
        simulator = OpenSystemSimulator(OptimisticAdmission())
        report = simulator.run(10)
        assert report.arrivals == 0
        assert report.utilization == 0.0

    def test_zero_demand_never_constructed(self, cpu1):
        from repro.errors import InvalidComputationError

        with pytest.raises(InvalidComputationError):
            creq([Demands({})], 0, 10)

    def test_idle_path_expires_everything(self, cpu1):
        pool = ResourceSet.of(term(3, cpu1, 0, 5))
        path = greedy_path(initial_state(pool, 0), 5, 1)
        assert path.expiring_resources(Interval(0, 5)).quantity(
            cpu1, Interval(0, 5)
        ) == 15


class TestExtremeDurations:
    def test_infinite_supply_finite_demand(self, cpu1):
        from repro.resources import ResourceTerm

        pool = ResourceSet.of(ResourceTerm(2, cpu1, Interval(0, math.inf)))
        schedule = find_schedule(pool, creq([Demands({cpu1: 100})], 0, 100))
        assert schedule is not None
        assert schedule.finish_time == 50

    def test_instant_deadline_rejected(self, cpu1):
        controller = AdmissionController(
            ResourceSet.of(term(100, cpu1, 0, 10)), now=5
        )
        assert not controller.can_admit(creq([Demands({cpu1: 1})], 0, 5)).admitted

    def test_fractional_everything(self, cpu1):
        pool = ResourceSet.of(
            term(Fraction(3, 2), cpu1, Fraction(1, 2), Fraction(19, 2))
        )
        requirement = creq(
            [Demands({cpu1: Fraction(9, 4)})], Fraction(1, 2), Fraction(19, 2)
        )
        schedule = find_schedule(pool, requirement)
        assert schedule is not None
        assert schedule.finish_time == Fraction(1, 2) + Fraction(9, 4) / Fraction(3, 2)

    def test_very_many_phases(self, cpu1):
        phases = [Demands({cpu1: 1})] * 200
        pool = ResourceSet.of(term(1, cpu1, 0, 250))
        schedule = find_schedule(pool, creq(phases, 0, 250))
        assert schedule is not None
        assert schedule.finish_time == 200


class TestMidRunAbuse:
    def test_double_consumption_same_slice_rejected(self, cpu1):
        pool = ResourceSet.of(term(2, cpu1, 0, 10))
        state = accommodate(initial_state(pool, 0), creq([Demands({cpu1: 8})], 0, 10))
        # one allocation entry per label: mapping silently dedups, so
        # over-allocating must fail on the quantity check instead
        with pytest.raises(TransitionError):
            step(state, 1, {"g": Demands({cpu1: 3})})

    def test_simulation_dt_fractional(self, cpu1):
        pool = ResourceSet.of(term(2, cpu1, 0, 10))
        simulator = OpenSystemSimulator(
            OptimisticAdmission(), initial_resources=pool, dt=Fraction(1, 2)
        )
        simulator.schedule(arrival(0, creq([Demands({cpu1: 8})], 0, 10, "a")))
        report = simulator.run(10)
        assert report.record_of("a").completed
        assert report.trace.steps == 20

    def test_simulator_rejects_bad_dt(self):
        with pytest.raises(SimulationError):
            OpenSystemSimulator(OptimisticAdmission(), dt=0)

    def test_exists_on_some_path_with_at(self, cpu1):
        pool = ResourceSet.of(term(2, cpu1, 0, 6))
        state = initial_state(pool, 0)
        target = satisfy(SimpleRequirement(Demands({cpu1: 4}), Interval(2, 6)))
        assert exists_on_some_path(state, 6, target, at=0) is not None


class TestProfileCorners:
    def test_profile_of_single_point_is_zero(self):
        assert RateProfile.constant(5, Interval(3, 3)).is_zero

    def test_integral_over_infinite_window_of_finite_profile(self, cpu1):
        profile = RateProfile.constant(2, Interval(0, 5))
        assert profile.integral(Interval(0, math.inf)) == 10

    def test_open_ended_profile_integral_is_infinite(self):
        profile = RateProfile([(0, 2)])
        assert math.isinf(profile.integral(Interval(0, math.inf)))

    def test_subtract_open_ended(self):
        always_on = RateProfile([(0, 5)])
        reduced = always_on - RateProfile([(0, 2)])
        assert reduced.rate_at(10 ** 9) == 3

    def test_restrict_empty_resource_set(self, cpu1):
        assert ResourceSet.empty().restrict(Interval(0, 5)).is_empty
