"""Unit tests for events and traces."""

from __future__ import annotations

import pytest

from repro.baselines import OptimisticAdmission
from repro.computation import ComplexRequirement, Demands
from repro.intervals import Interval
from repro.resources import ResourceSet, term
from repro.system import (
    ComputationArrivalEvent,
    OpenSystemSimulator,
    PromiseViolation,
    ResourceJoinEvent,
    SimulationTrace,
    arrival,
    resource_join,
)
from repro.system.checkpoint import Journal


def creq(phases, s, d, label):
    return ComplexRequirement(phases, Interval(s, d), label=label)


class TestEvents:
    def test_arrival_wraps_complex(self, cpu1):
        event = arrival(3, creq([Demands({cpu1: 1})], 3, 9, "x"))
        assert isinstance(event, ComputationArrivalEvent)
        assert event.label == "x"
        assert len(event.requirement.components) == 1

    def test_arrival_label_defaults(self, cpu1):
        event = arrival(3, creq([Demands({cpu1: 1})], 3, 9, ""))
        assert event.label  # synthesised

    def test_resource_join(self, cpu1):
        event = resource_join(5, ResourceSet.of(term(1, cpu1, 5, 9)))
        assert isinstance(event, ResourceJoinEvent)
        assert event.time == 5

    def test_same_time_events_pop_in_schedule_order(self, cpu1, tmp_path):
        # Minted a, b, c but scheduled c, a, b: the simulator's own
        # schedule() call order breaks the tie, not creation order.
        minted = {
            label: arrival(0, creq([Demands({cpu1: 1})], 0, 9, label))
            for label in "abc"
        }
        sim = OpenSystemSimulator(OptimisticAdmission())
        for label in "cab":
            sim.schedule(minted[label])
        journal = tmp_path / "journal.jsonl"
        sim.run(1, journal=journal)
        records, _ = Journal.scan(journal)
        applied = [r for r in records if r["type"] == "event"]
        assert [r["label"] for r in applied] == ["c", "a", "b"]
        assert [r["seq"] for r in applied] == [0, 1, 2]

    def test_events_compare_by_value(self, cpu1):
        requirement = creq([Demands({cpu1: 1})], 0, 9, "a")
        assert arrival(0, requirement) == arrival(0, requirement)
        assert arrival(0, requirement) != arrival(1, requirement)
        assert arrival(0, requirement, "x") != arrival(0, requirement, "y")


class TestTrace:
    @pytest.fixture
    def report(self, cpu1):
        pool = ResourceSet.of(term(4, cpu1, 0, 10))
        sim = OpenSystemSimulator(OptimisticAdmission(), initial_resources=pool)
        sim.schedule(arrival(0, creq([Demands({cpu1: 8})], 0, 10, "a")))
        return sim.run(10)

    def test_step_count(self, report):
        assert report.trace.steps == 10

    def test_consumed_totals(self, report, cpu1):
        assert report.trace.consumed_totals() == {cpu1: 8}

    def test_expired_totals(self, report, cpu1):
        assert report.trace.expired_totals() == {cpu1: 32}

    def test_consumption_by_actor(self, report, cpu1):
        assert report.trace.consumption_by_actor() == {"a": {cpu1: 8}}

    def test_notes_recorded(self, report):
        assert any("arrival" in msg for _, msg in report.trace.timeline())

    def test_timeline_sorted(self, report):
        times = [t for t, _ in report.trace.timeline()]
        assert times == sorted(times)

    def test_empty_trace(self):
        trace = SimulationTrace()
        assert trace.steps == 0
        assert trace.consumed_totals() == {}


class TestTraceFaultErgonomics:
    def test_empty_trace_tolerates_fault_queries(self):
        trace = SimulationTrace()
        assert trace.violations == []
        assert trace.lost_totals() == {}
        assert trace.lost_totals("revocation") == {}
        assert trace.lost_totals("crash") == {}
        assert trace.conservation_gaps({}) == []
        assert list(trace.timeline()) == []

    def test_record_loss_validates_cause(self, cpu1):
        trace = SimulationTrace()
        with pytest.raises(ValueError):
            trace.record_loss(3, "gremlins", cpu1, 5)

    def test_lost_totals_filter_by_cause(self, cpu1):
        trace = SimulationTrace()
        trace.record_loss(2, "revocation", cpu1, 5)
        trace.record_loss(4, "crash", cpu1, 3)
        assert trace.lost_totals("revocation") == {cpu1: 5}
        assert trace.lost_totals("crash") == {cpu1: 3}
        assert trace.lost_totals() == {cpu1: 8}

    def test_lost_totals_rejects_unknown_cause(self, cpu1):
        trace = SimulationTrace()
        # Validated even when the trace is empty: an unknown cause must
        # not be indistinguishable from "no losses".
        with pytest.raises(ValueError, match="gremlins"):
            trace.lost_totals("gremlins")
        trace.record_loss(2, "crash", cpu1, 3)
        with pytest.raises(ValueError, match="unknown loss cause"):
            trace.lost_totals("crashes")

    def test_violations_accessors(self):
        trace = SimulationTrace()
        violation = PromiseViolation(
            time=4, label="job", cause="crash", deadline=10, remaining_total=6
        )
        trace.record_violation(violation)
        assert trace.violations == [violation]
        assert [v.label for v in trace.violations] == ["job"]
        assert any("promise violated" in msg for _, msg in trace.timeline())

    def test_conservation_gaps_report_losses(self, cpu1):
        trace = SimulationTrace()
        trace.record_loss(2, "crash", cpu1, 8)
        assert trace.conservation_gaps({cpu1: 8}) == []

    def test_loss_only_ltype_surfaces_in_gaps(self, cpu1):
        # Regression: a located type appearing *only* in loss records —
        # never offered, consumed, or expired — used to vanish from key
        # discovery, so the check reported a clean balance while capacity
        # had been lost from nowhere.
        trace = SimulationTrace()
        trace.record_loss(2, "revocation", cpu1, 5)
        gaps = trace.conservation_gaps({})
        assert len(gaps) == 1
        assert str(cpu1) in gaps[0]
        # lost_totals must report it too, not just the gap message.
        assert trace.lost_totals() == {cpu1: 5}
