"""Unit tests for event-stream persistence (record & replay)."""

from __future__ import annotations

import io

import pytest

from repro.baselines import RotaAdmission
from repro.computation import ComplexRequirement, Demands
from repro.errors import RotaError
from repro.intervals import Interval
from repro.resources import ResourceSet, term
from repro.serialization import SerializationError
from repro.system import (
    ComputationLeaveEvent,
    OpenSystemSimulator,
    ResourceRevocationEvent,
    arrival,
    resource_join,
)
from repro.workloads import cloud_scenario, volunteer_scenario
from repro.workloads.persistence import (
    event_from_wire,
    event_to_wire,
    load_events,
    save_events,
)


def sample_events(cpu1):
    return [
        resource_join(0, ResourceSet.of(term(4, cpu1, 0, 20))),
        arrival(
            1,
            ComplexRequirement([Demands({cpu1: 8})], Interval(1, 10), label="j1"),
        ),
        ComputationLeaveEvent(time=2, label="j1"),
        ResourceRevocationEvent(
            time=5, resources=ResourceSet.of(term(1, cpu1, 5, 20))
        ),
    ]


class TestWireForm:
    def test_every_kind_roundtrips(self, cpu1):
        for event in sample_events(cpu1):
            clone = event_from_wire(event_to_wire(event))
            assert type(clone) is type(event)
            assert clone.time == event.time

    def test_arrival_requirement_preserved(self, cpu1):
        original = sample_events(cpu1)[1]
        clone = event_from_wire(event_to_wire(original))
        assert clone.requirement == original.requirement
        assert clone.label == "j1"

    def test_unknown_kind_rejected(self):
        with pytest.raises(SerializationError):
            event_from_wire({"event": "meteor", "time": 0})

    def test_fault_events_roundtrip(self):
        from fractions import Fraction

        from repro.system import node_crash, rate_degradation

        crash = node_crash(4, "l1")
        clone = event_from_wire(event_to_wire(crash))
        assert clone.time == 4 and clone.location == crash.location

        straggler = rate_degradation(6, "l2", Fraction(1, 3))
        clone = event_from_wire(event_to_wire(straggler))
        assert clone.time == 6 and clone.location == straggler.location
        assert clone.factor == Fraction(1, 3)  # rationals survive the wire


class TestFileRoundTrip:
    def test_save_and_load(self, tmp_path, cpu1):
        events = sample_events(cpu1)
        path = tmp_path / "trace.jsonl"
        assert save_events(events, path) == len(events)
        loaded = load_events(path)
        assert len(loaded) == len(events)
        assert [type(e) for e in loaded] == [type(e) for e in events]

    def test_stream_objects(self, cpu1):
        buffer = io.StringIO()
        save_events(sample_events(cpu1), buffer)
        buffer.seek(0)
        assert len(load_events(buffer)) == 4

    def test_blank_lines_skipped(self, tmp_path, cpu1):
        path = tmp_path / "trace.jsonl"
        save_events(sample_events(cpu1)[:1], path)
        with open(path, "a") as handle:
            handle.write("\n\n")
        assert len(load_events(path)) == 1

    def test_corrupt_line_reported_with_number(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"event": "resource_join"\n')
        with pytest.raises(SerializationError, match="line 1"):
            load_events(path)

    def test_corrupt_line_after_valid_ones_named_by_number(self, tmp_path, cpu1):
        path = tmp_path / "trace.jsonl"
        save_events(sample_events(cpu1)[:2], path)
        with open(path, "a") as handle:
            handle.write("not json at all\n")
        with pytest.raises(SerializationError, match="line 3"):
            load_events(path)

    def test_load_events_names_line_of_semantic_error(self, tmp_path, cpu1):
        path = tmp_path / "trace.jsonl"
        save_events(sample_events(cpu1)[:1], path)
        with open(path, "a") as handle:
            handle.write('{"event": "node_crash", "time": 3}\n')
        with pytest.raises(SerializationError, match="line 2.*location"):
            load_events(path)

    def test_save_to_path_is_atomic(self, tmp_path, cpu1):
        """A failing save must leave the previous trace untouched."""
        path = tmp_path / "trace.jsonl"
        save_events(sample_events(cpu1)[:2], path)
        before = path.read_text()
        with pytest.raises(SerializationError):
            save_events([*sample_events(cpu1), object()], path)
        assert path.read_text() == before
        assert list(tmp_path.iterdir()) == [path]  # no stray temp file


class TestWireValidation:
    def test_missing_time_is_serialization_error(self):
        # Regression: this used to escape as a bare KeyError.
        with pytest.raises(SerializationError, match="time"):
            event_from_wire({"event": "computation_leave", "label": "j1"})

    def test_missing_required_keys_named_per_kind(self):
        with pytest.raises(SerializationError, match="factor"):
            event_from_wire(
                {"event": "rate_degradation", "time": 1, "location": "l1"}
            )

    def test_non_mapping_rejected(self):
        with pytest.raises(SerializationError):
            event_from_wire(["resource_join", 0])  # type: ignore[arg-type]

    def test_records_carry_format_version(self, cpu1):
        for event in sample_events(cpu1):
            assert event_to_wire(event)["format_version"] == 1

    def test_unstamped_records_read_as_v1(self):
        data = {"event": "computation_leave", "time": 2, "label": "j1"}
        assert event_from_wire(data).label == "j1"

    def test_future_format_version_rejected(self):
        with pytest.raises(SerializationError, match="format_version 99"):
            event_from_wire(
                {
                    "event": "computation_leave",
                    "time": 2,
                    "label": "j1",
                    "format_version": 99,
                }
            )

    def test_garbage_format_version_rejected(self):
        with pytest.raises(SerializationError, match="format_version"):
            event_from_wire(
                {
                    "event": "computation_leave",
                    "time": 2,
                    "label": "j1",
                    "format_version": "two",
                }
            )


class TestReplayFidelity:
    @pytest.mark.parametrize("factory", [cloud_scenario, volunteer_scenario])
    def test_replayed_scenario_gives_identical_report(self, tmp_path, factory):
        """Record a generated scenario, replay it, and the simulation
        outcome must match record for record."""
        scenario = factory(5)
        path = tmp_path / "scenario.jsonl"
        save_events(scenario.events, path)
        replayed = load_events(path)

        outcomes = []
        for events in (scenario.events, replayed):
            simulator = OpenSystemSimulator(
                RotaAdmission(), initial_resources=scenario.initial_resources
            )
            simulator.schedule(*events)
            report = simulator.run(scenario.horizon)
            outcomes.append(
                sorted((r.label, r.outcome) for r in report.records)
            )
        assert outcomes[0] == outcomes[1]
