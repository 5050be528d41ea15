"""Spec-checker tests: one good and one bad fixture per rule in
``SPEC_RULES``, the pair-naming guarantee for path-inconsistent temporal
networks, trace line numbers, quick mode, and the shipped examples."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis.lint import (
    SPEC_RULES,
    check_spec_document,
    check_spec_path,
    check_temporal_constraints,
    check_trace_text,
)
from repro.intervals.interval import Interval

REPO_ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = REPO_ROOT / "examples" / "specs"


# ----------------------------------------------------------------------
# Wire-format builders
# ----------------------------------------------------------------------

def node_ltype(resource="cpu", name="n1"):
    return {
        "kind": "ltype",
        "resource": resource,
        "location": {"kind": "node", "name": name},
    }


def link_ltype(source="n1", destination="n2"):
    return {
        "kind": "ltype",
        "resource": "network",
        "location": {"kind": "link", "source": source,
                     "destination": destination},
    }


def interval(start=0, end=20):
    return {"kind": "interval", "start": start, "end": end}


def term(ltype=None, rate=6, start=0, end=20):
    return {
        "kind": "term",
        "rate": rate,
        "ltype": ltype or node_ltype(),
        "window": interval(start, end),
    }


def resource_set(*terms):
    return {"kind": "resource_set", "terms": list(terms)}


def demands(amounts):
    return {"kind": "demands", "amounts": amounts}


def complex_requirement(quantity=4, start=0, end=16, ltype=None, label="job"):
    return {
        "kind": "complex_requirement",
        "label": label,
        "window": interval(start, end),
        "phases": [demands([{"ltype": ltype or node_ltype(),
                             "quantity": quantity}])],
    }


def simple_requirement(amounts=(), start=0, end=8):
    return {
        "kind": "simple_requirement",
        "demands": demands(list(amounts)),
        "window": interval(start, end),
    }


def request(resources=None, requirement=None):
    return {
        "resources": resources if resources is not None
        else resource_set(term()),
        "requirement": requirement if requirement is not None
        else complex_requirement(),
    }


def arrival(time=1, requirement=None, label="job"):
    return {
        "event": "computation_arrival",
        "time": time,
        "label": label,
        "requirement": requirement or complex_requirement(
            start=time, end=time + 8, label=label
        ),
        "format_version": 1,
    }


def join(time=0, *terms):
    return {
        "event": "resource_join",
        "time": time,
        "resources": resource_set(*terms),
        "format_version": 1,
    }


def scenario(events, constraints=None, horizon=30):
    document = {"kind": "scenario", "name": "t", "horizon": horizon,
                "events": events}
    if constraints is not None:
        document["temporal_constraints"] = constraints
    return document


# rule id -> (bad document, good document).  Both run through
# check_spec_document; bad must include a finding for exactly that rule,
# good must include none for it.
FIXTURES = {
    "spec-syntax": (
        {"kind": "mystery"},
        {"kind": "fault_plan", "seed": 1},
    ),
    "spec-interval": (
        complex_requirement(start=10, end=5),
        complex_requirement(start=0, end=16),
    ),
    "spec-located-type": (
        resource_set(term(ltype=link_ltype("n1", "n1"))),
        resource_set(term(ltype=link_ltype("n1", "n2"))),
    ),
    "spec-missing-resource": (
        request(requirement=complex_requirement(
            ltype=node_ltype(resource="gpu"))),
        request(),
    ),
    "spec-supply-shortfall": (
        request(requirement=complex_requirement(quantity=1000)),
        request(requirement=complex_requirement(quantity=4)),
    ),
    "spec-deadline-vacuous": (
        simple_requirement(),  # demands nothing
        complex_requirement(),
    ),
    "spec-deadline-contradictory": (
        complex_requirement(start=5, end=5),  # empty window, real demands
        complex_requirement(start=0, end=16),
    ),
    "spec-temporal-inconsistency": (
        {
            "kind": "temporal_spec",
            "constraints": [
                {"a": "A", "b": "B", "relations": ["before"]},
                {"a": "B", "b": "C", "relations": ["before"]},
                {"a": "C", "b": "A", "relations": ["before"]},
            ],
        },
        {
            "kind": "temporal_spec",
            "constraints": [
                {"a": "A", "b": "B", "relations": ["before", "meets"]},
                {"a": "B", "b": "C", "relations": ["before"]},
            ],
        },
    ),
    "spec-reference": (
        scenario([join(0, term()), arrival(1, label="a")],
                 constraints=[{"a": "a", "b": "ghost",
                               "relations": ["before"]}]),
        scenario([join(0, term()), arrival(1, label="a"),
                  arrival(2, label="b")],
                 constraints=[{"a": "a", "b": "b",
                               "relations": ["before", "meets", "overlaps"]}]),
    ),
    "spec-fault-plan": (
        # revocation_rate is a probability; 2.5 cannot be one
        {"kind": "fault_plan", "seed": 1, "revocation_rate": 2.5},
        {"kind": "fault_plan", "seed": 1, "revocation_rate": 0.25},
    ),
    "spec-service": (
        # brownout hysteresis needs exit < enter or the mode flaps
        {"kind": "service_config", "brownout_enter": 4, "brownout_exit": 8},
        {"kind": "service_config", "brownout_enter": 8, "brownout_exit": 3},
    ),
}


def rules_of(findings):
    return {f.rule for f in findings}


@pytest.mark.parametrize("rule", sorted(FIXTURES))
def test_bad_fixture_triggers_rule(rule):
    bad, _good = FIXTURES[rule]
    findings = check_spec_document(bad, "bad.json")
    assert rule in rules_of(findings), (
        f"expected {rule}, got {[f.render() for f in findings]}"
    )


@pytest.mark.parametrize("rule", sorted(FIXTURES))
def test_good_fixture_avoids_rule(rule):
    _bad, good = FIXTURES[rule]
    findings = check_spec_document(good, "good.json")
    assert rule not in rules_of(findings), (
        f"unexpected {rule}: {[f.render() for f in findings]}"
    )


def test_every_spec_rule_has_a_fixture():
    assert set(FIXTURES) == set(SPEC_RULES)


def test_vacuous_findings_are_warnings():
    findings = check_spec_document(simple_requirement(), "s.json")
    assert findings and all(f.severity == "warning" for f in findings)


def test_infinite_deadline_is_vacuous_warning():
    findings = check_spec_document(
        complex_requirement(start=0, end="inf"), "s.json"
    )
    vacuous = [f for f in findings if f.rule == "spec-deadline-vacuous"]
    assert vacuous and vacuous[0].severity == "warning"
    assert "infinity" in vacuous[0].message


def test_non_object_document():
    findings = check_spec_document([1, 2, 3], "s.json")
    assert rules_of(findings) == {"spec-syntax"}


@pytest.mark.parametrize("key", ["rpc_timeout", "rpc_attempts"])
def test_retired_service_config_keys_are_syntax(key):
    # the front door has no network knobs; a config carrying them is a
    # typo'd key, not a silently ignored setting
    findings = check_spec_document(
        {"kind": "service_config", key: 2}, "svc.json"
    )
    assert rules_of(findings) == {"spec-syntax"}
    assert key in findings[0].message


@pytest.mark.parametrize("kind, key", [
    ("fault_plan", "straggler_factor"),
    ("service_config", "ewma_alpha"),
])
def test_removed_option_keys_are_syntax(kind, key):
    # these options are module constants now; a document setting one is a
    # typo'd key, not a silently ignored setting
    findings = check_spec_document({"kind": kind, key: 0.5}, "plan.json")
    assert rules_of(findings) == {"spec-syntax"}
    assert f"unknown {kind} key {key!r}" in findings[0].message


def test_non_integer_fault_plan_seed_is_a_finding():
    findings = check_spec_document({"kind": "fault_plan", "seed": "a"})
    assert rules_of(findings) == {"spec-fault-plan"}


def test_unreadable_file_raises_for_exit_2(tmp_path):
    with pytest.raises(OSError):
        check_spec_path(tmp_path / "absent.json")


def test_invalid_json_reports_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "kind": oops\n}\n')
    findings = check_spec_path(path)
    assert [f.rule for f in findings] == ["spec-syntax"]
    assert findings[0].line == 2


# ----------------------------------------------------------------------
# Temporal networks: the pair-naming guarantee
# ----------------------------------------------------------------------

class TestTemporalNetworks:
    def test_inconsistency_names_the_offending_pair(self):
        bad, _ = FIXTURES["spec-temporal-inconsistency"]
        findings = check_spec_document(bad, "t.json")
        inconsistent = [
            f for f in findings if f.rule == "spec-temporal-inconsistency"
        ]
        assert len(inconsistent) == 1
        message = inconsistent[0].message
        assert "no Allen relation can hold between" in message
        named = [name for name in ("'A'", "'B'", "'C'") if name in message]
        assert len(named) == 2, message

    def test_constraint_contradicting_concrete_windows(self):
        # A really is before B, but the spec demands the opposite.
        concrete = {"A": Interval(0, 5), "B": Interval(10, 20)}
        findings = check_temporal_constraints(
            [{"a": "B", "b": "A", "relations": ["before"]}],
            concrete, "t.json",
        )
        assert rules_of(findings) == {"spec-temporal-inconsistency"}
        assert "'A'" in findings[0].message and "'B'" in findings[0].message

    def test_consistent_concrete_network_is_clean(self):
        concrete = {"A": Interval(0, 5), "B": Interval(10, 20)}
        findings = check_temporal_constraints(
            [{"a": "A", "b": "B", "relations": ["before"]}],
            concrete, "t.json",
        )
        assert findings == []

    def test_empty_interval_is_rejected(self):
        findings = check_temporal_constraints(
            [], {"E": Interval(3, 3)}, "t.json"
        )
        assert rules_of(findings) == {"spec-interval"}

    def test_unknown_relation_name(self):
        findings = check_temporal_constraints(
            [{"a": "A", "b": "B", "relations": ["sideways"]}],
            {}, "t.json", allow_unknown=True,
        )
        assert rules_of(findings) == {"spec-syntax"}

    def test_relation_spellings(self):
        # long names, paper symbols, and mixed case all parse
        findings = check_temporal_constraints(
            [{"a": "A", "b": "B", "relations": ["b", "Meets", "OVERLAPS"]}],
            {}, "t.json", allow_unknown=True,
        )
        assert findings == []


# ----------------------------------------------------------------------
# Traces and quick mode
# ----------------------------------------------------------------------

class TestTraces:
    def lines(self, *records):
        return "\n".join(json.dumps(record) for record in records) + "\n"

    def test_bad_line_number_is_reported(self):
        text = self.lines(join(0, term())) + "not json\n"
        findings = check_trace_text(text, "t.jsonl")
        assert [f.rule for f in findings] == ["spec-syntax"]
        assert findings[0].line == 2

    def test_load_failures_name_their_line(self):
        # A bad interval and a bad event on lines 2 and 3 of a trace are
        # anchored there, as their scenario counterparts are at
        # $.events[i].
        records = [join(0, term()), join(1, term(start=5, end=2)),
                   {"event": "mystery", "time": 3}]
        findings = check_trace_text(self.lines(*records), "t.jsonl")
        assert [(f.rule, f.line) for f in findings] == [
            ("spec-interval", 2), ("spec-syntax", 3),
        ]
        findings = check_spec_document(scenario(records), "s.json")
        assert [(f.rule, f.message.split(":")[0]) for f in findings] == [
            ("spec-interval", "$.events[1].resources.terms[0].window"),
            ("spec-syntax", "$.events[2]"),
        ]

    def test_missing_resource_names_arrival_line(self):
        text = self.lines(
            join(0, term()),
            arrival(1, complex_requirement(
                start=1, end=9, ltype=node_ltype(resource="gpu"))),
        )
        findings = check_trace_text(text, "t.jsonl")
        missing = [f for f in findings if f.rule == "spec-missing-resource"]
        assert len(missing) == 1 and missing[0].line == 2

    def test_late_join_satisfies_earlier_arrival(self):
        # coverage is computed over the whole trace, not prefix order
        text = self.lines(
            arrival(1, complex_requirement(start=1, end=9)),
            join(2, term()),
        )
        assert check_trace_text(text, "t.jsonl") == []

    def test_quick_mode_truncates_without_false_findings(self):
        from repro.analysis.lint.spec import QUICK_TRACE_RECORDS

        records = [arrival(1, complex_requirement(start=1, end=9))]
        records += [join(2) for _ in range(QUICK_TRACE_RECORDS)]
        records += [join(3, term())]  # the providing join, past the cap
        text = self.lines(*records)
        assert check_trace_text(text, "t.jsonl", quick=True) == []
        assert check_trace_text(text, "t.jsonl", quick=False) == []

    def test_full_scan_still_proves_absence(self):
        records = [arrival(1, complex_requirement(start=1, end=9))]
        records += [join(2) for _ in range(5)]
        text = self.lines(*records)
        findings = check_trace_text(text, "t.jsonl", quick=False)
        assert rules_of(findings) == {"spec-missing-resource"}


# ----------------------------------------------------------------------
# Scenarios
# ----------------------------------------------------------------------

class TestScenarios:
    def test_missing_horizon(self):
        findings = check_spec_document(
            {"kind": "scenario", "events": []}, "s.json"
        )
        assert rules_of(findings) == {"spec-syntax"}

    def test_non_positive_horizon(self):
        findings = check_spec_document(scenario([], horizon=0), "s.json")
        assert rules_of(findings) == {"spec-interval"}

    def test_unknown_key(self):
        document = scenario([join(0, term())])
        document["surprise"] = 1
        findings = check_spec_document(document, "s.json")
        assert rules_of(findings) == {"spec-syntax"}
        assert "surprise" in findings[0].message

    def test_event_beyond_horizon_warns(self):
        document = scenario([join(0, term()), arrival(40)], horizon=30)
        findings = check_spec_document(document, "s.json")
        vacuous = [f for f in findings if f.rule == "spec-deadline-vacuous"]
        assert vacuous and all(f.severity == "warning" for f in vacuous)

    def test_deadline_at_arrival_is_contradictory(self):
        document = scenario(
            [join(0, term()), arrival(9, complex_requirement(start=1, end=9))]
        )
        findings = check_spec_document(document, "s.json")
        assert "spec-deadline-contradictory" in rules_of(findings)


# ----------------------------------------------------------------------
# Shipped examples stay clean
# ----------------------------------------------------------------------

def test_examples_exist():
    assert len(list(EXAMPLES.iterdir())) >= 6


@pytest.mark.parametrize(
    "path", sorted(EXAMPLES.iterdir()), ids=lambda p: p.name
)
def test_shipped_example_is_clean(path):
    findings = check_spec_path(path)
    assert findings == [], "\n".join(f.render() for f in findings)


@pytest.mark.parametrize(
    "path", sorted(EXAMPLES.iterdir()), ids=lambda p: p.name
)
def test_shipped_example_is_clean_in_quick_mode(path):
    assert check_spec_path(path, quick=True) == []
