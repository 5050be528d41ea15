"""Unit tests for the open-system simulator."""

from __future__ import annotations

import math

import pytest

from repro.baselines import OptimisticAdmission, RotaAdmission
from repro.computation import ComplexRequirement, Demands
from repro.errors import SimulationError
from repro.intervals import Interval
from repro.resources import ResourceSet, term
from repro.observability import MetricsRegistry, use_registry
from repro.system import (
    ComputationLeaveEvent,
    OpenSystemSimulator,
    ReservationPolicy,
    arrival,
    node_crash,
    resource_join,
)


def creq(phases, s, d, label):
    return ComplexRequirement(phases, Interval(s, d), label=label)


@pytest.fixture
def pool(cpu1):
    return ResourceSet.of(term(4, cpu1, 0, 20))


class TestLifecycle:
    def test_admit_and_complete(self, pool, cpu1):
        sim = OpenSystemSimulator(OptimisticAdmission(), initial_resources=pool)
        sim.schedule(arrival(0, creq([Demands({cpu1: 8})], 0, 10, "a")))
        report = sim.run(20)
        record = report.record_of("a")
        assert record.admitted
        assert record.completed
        assert record.finish_time == 2
        assert not record.missed

    def test_miss_detected(self, pool, cpu1):
        sim = OpenSystemSimulator(OptimisticAdmission(), initial_resources=pool)
        sim.schedule(arrival(0, creq([Demands({cpu1: 50})], 0, 10, "a")))
        report = sim.run(20)
        record = report.record_of("a")
        assert record.admitted and record.missed and not record.completed

    def test_rejection_recorded(self, pool, cpu1):
        sim = OpenSystemSimulator(RotaAdmission(), initial_resources=pool)
        sim.schedule(arrival(0, creq([Demands({cpu1: 100})], 0, 10, "a")))
        report = sim.run(20)
        record = report.record_of("a")
        assert not record.admitted
        assert record.outcome == "rejected"
        assert record.rejection_reason

    @pytest.mark.parametrize(
        "name, value",
        [
            ("dt", True),
            ("dt", math.inf),
            ("dt", math.nan),
            ("dt", "1"),
            ("dt", None),
            ("dt", -1),
            ("invariant_interval", 2.5),
            ("invariant_interval", True),
            ("invariant_interval", math.nan),
            ("invariant_interval", "x"),
            ("invariant_interval", -1),
        ],
    )
    def test_constructor_rejects_bad_settings(self, name, value):
        with pytest.raises(SimulationError, match=name) as info:
            OpenSystemSimulator(OptimisticAdmission(), **{name: value})
        assert info.traceback[-1].name == "__init__"

    def test_duplicate_labels_rejected(self, pool, cpu1):
        sim = OpenSystemSimulator(OptimisticAdmission(), initial_resources=pool)
        sim.schedule(
            arrival(0, creq([Demands({cpu1: 1})], 0, 10, "same")),
            arrival(1, creq([Demands({cpu1: 1})], 1, 10, "same")),
        )
        with pytest.raises(SimulationError):
            sim.run(20)

    def test_resource_join_expands_capacity(self, cpu1):
        sim = OpenSystemSimulator(RotaAdmission(), initial_resources=ResourceSet.empty())
        sim.schedule(
            resource_join(0, ResourceSet.of(term(4, cpu1, 0, 20))),
            arrival(1, creq([Demands({cpu1: 8})], 1, 10, "a")),
        )
        report = sim.run(20)
        assert report.record_of("a").completed

    def test_leave_before_start(self, pool, cpu1):
        sim = OpenSystemSimulator(OptimisticAdmission(), initial_resources=pool)
        sim.schedule(
            arrival(0, creq([Demands({cpu1: 8})], 5, 15, "a")),
            ComputationLeaveEvent(time=2, label="a"),
        )
        report = sim.run(20)
        record = report.record_of("a")
        assert not record.admitted
        assert "withdrew" in record.rejection_reason

    def test_leave_after_start_refused(self, pool, cpu1):
        sim = OpenSystemSimulator(OptimisticAdmission(), initial_resources=pool)
        sim.schedule(
            arrival(0, creq([Demands({cpu1: 80})], 0, 20, "a")),
            ComputationLeaveEvent(time=5, label="a"),
        )
        report = sim.run(20)
        assert report.record_of("a").admitted  # leave refused, still running


class TestAccounting:
    def test_conservation(self, pool, cpu1):
        """offered == consumed + expired for every located type."""
        sim = OpenSystemSimulator(OptimisticAdmission(), initial_resources=pool)
        sim.schedule(arrival(0, creq([Demands({cpu1: 30})], 0, 20, "a")))
        report = sim.run(20)
        consumed = report.trace.consumed_totals().get(cpu1, 0)
        expired = report.trace.expired_totals().get(cpu1, 0)
        assert consumed + expired == report.offered[cpu1] == 80
        assert consumed == 30

    def test_utilization(self, pool, cpu1):
        sim = OpenSystemSimulator(OptimisticAdmission(), initial_resources=pool)
        sim.schedule(arrival(0, creq([Demands({cpu1: 40})], 0, 20, "a")))
        report = sim.run(20)
        assert report.utilization == pytest.approx(0.5)

    def test_report_counts(self, pool, cpu1):
        sim = OpenSystemSimulator(RotaAdmission(), initial_resources=pool)
        sim.schedule(
            arrival(0, creq([Demands({cpu1: 40})], 0, 10, "a")),
            arrival(0, creq([Demands({cpu1: 40})], 0, 10, "b")),
            arrival(0, creq([Demands({cpu1: 30})], 10, 20, "c")),
        )
        report = sim.run(20)
        assert report.arrivals == 3
        assert report.admitted == 2
        assert report.rejected == 1
        assert report.admission_precision == 1.0


class TestMultiActorArrivals:
    def test_components_relabelled(self, cpu1, cpu2):
        from repro.computation import ConcurrentRequirement

        window = Interval(0, 10)
        req = ConcurrentRequirement(
            (
                ComplexRequirement([Demands({cpu1: 8})], window, label="x"),
                ComplexRequirement([Demands({cpu2: 8})], window, label="y"),
            ),
            window,
        )
        pool = ResourceSet.of(term(4, cpu1, 0, 20), term(4, cpu2, 0, 20))
        sim = OpenSystemSimulator(OptimisticAdmission(), initial_resources=pool)
        sim.schedule(arrival(0, req, label="multi"))
        report = sim.run(20)
        record = report.record_of("multi")
        assert record.completed

    def test_miss_if_any_component_misses(self, cpu1, cpu2):
        from repro.computation import ConcurrentRequirement

        window = Interval(0, 10)
        req = ConcurrentRequirement(
            (
                ComplexRequirement([Demands({cpu1: 8})], window, label="x"),
                ComplexRequirement([Demands({cpu2: 800})], window, label="y"),
            ),
            window,
        )
        pool = ResourceSet.of(term(4, cpu1, 0, 20), term(4, cpu2, 0, 20))
        sim = OpenSystemSimulator(OptimisticAdmission(), initial_resources=pool)
        sim.schedule(arrival(0, req, label="multi"))
        report = sim.run(20)
        assert report.record_of("multi").missed


class TestRotaSoundnessInExecution:
    def test_reservation_policy_zero_misses(self, cpu1, net12):
        """The headline guarantee: whatever ROTA admits, completes."""
        pool = ResourceSet.of(term(3, cpu1, 0, 30), term(2, net12, 5, 25))
        sim = OpenSystemSimulator(
            RotaAdmission(),
            initial_resources=pool,
            allocation_policy=ReservationPolicy(),
        )
        sim.schedule(
            arrival(0, creq([Demands({cpu1: 10}), Demands({net12: 8})], 0, 20, "a")),
            arrival(2, creq([Demands({cpu1: 20})], 2, 28, "b")),
            arrival(4, creq([Demands({net12: 10}), Demands({cpu1: 5})], 4, 30, "c")),
        )
        report = sim.run(30)
        assert report.missed == 0
        assert report.completed == report.admitted


class _RefuseJoins(RotaAdmission):
    """Sheds every mid-run join at the gate."""

    def admit_resources(self, resources, now):
        return ResourceSet.empty()


class TestLossMetrics:
    def test_shed_and_fault_samples_share_a_type(self, pool, cpu1, cpu2):
        """``sim_lost_quantity_total`` samples every cause alike: an int
        shed quantity counts as an int, as an int fault quantity does."""
        registry = MetricsRegistry()
        with use_registry(registry):
            sim = OpenSystemSimulator(_RefuseJoins(), initial_resources=pool)
            sim.schedule(
                resource_join(2, ResourceSet.of(term(3, cpu2, 0, 20))),
                node_crash(5, cpu1.location),
            )
            report = sim.run(20)
        assert {loss.cause for loss in report.trace.losses} == {
            "shed", "crash",
        }
        (family,) = [
            f for f in registry.snapshot()["metrics"]
            if f["name"] == "sim_lost_quantity_total"
        ]
        samples = {
            series["labels"]["cause"]: series["value"]
            for series in family["series"]
        }
        assert samples == {"shed": 54, "crash": 60}
        assert type(samples["shed"]) is type(samples["crash"]) is int
