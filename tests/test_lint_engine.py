"""Engine-level tests for ``repro.analysis.lint``: suppression grammar,
module resolution, reconciliation, and the reporter contracts."""

from __future__ import annotations

import json

import pytest

from repro.analysis.lint import (
    FINDING_FIELDS,
    JSON_SCHEMA_VERSION,
    META_RULES,
    Analyzer,
    Finding,
    get_rules,
    known_rule_names,
    module_of,
    package_of,
    parse_suppressions,
    render_json,
    render_text,
)


class TestModuleResolution:
    def test_src_layout(self):
        assert module_of("src/repro/system/simulator.py") == "repro.system.simulator"

    def test_absolute_path(self):
        assert (
            module_of("/root/repo/src/repro/decision/admission.py")
            == "repro.decision.admission"
        )

    def test_package_init_maps_to_package(self):
        assert module_of("src/repro/faults/__init__.py") == "repro.faults"

    def test_root_module(self):
        assert module_of("src/repro/cli.py") == "repro.cli"

    def test_outside_any_repro_tree(self):
        assert module_of("scripts/tool.py") is None

    def test_package_of(self):
        assert package_of("repro.system.simulator") == "system"
        assert package_of("repro.cli") == "cli"
        assert package_of("repro") == "repro"


class TestSuppressionParsing:
    def test_single_rule_with_reason(self):
        sups = parse_suppressions(
            "x = 1  # repro-lint: disable=set-iteration -- testing harness\n"
        )
        assert list(sups) == [1]
        assert sups[1].rules == ("set-iteration",)
        assert sups[1].reason == "testing harness"
        assert sups[1].has_reason

    def test_multiple_rules_one_comment(self):
        sups = parse_suppressions(
            "y = 2  # repro-lint: disable=set-iteration, id-ordering -- both sanctioned\n"
        )
        assert sups[1].rules == ("set-iteration", "id-ordering")

    def test_missing_reason_detected(self):
        sups = parse_suppressions("z = 3  # repro-lint: disable=set-iteration\n")
        assert not sups[1].has_reason

    def test_pattern_inside_string_is_inert(self):
        sups = parse_suppressions(
            'doc = "example: # repro-lint: disable=set-iteration -- nope"\n'
        )
        assert sups == {}

    def test_pattern_inside_docstring_is_inert(self):
        text = '"""\n# repro-lint: disable=set-iteration -- docs\n"""\n'
        assert parse_suppressions(text) == {}

    def test_line_numbers_are_one_based(self):
        text = "a = 1\nb = 2  # repro-lint: disable=layering -- why not\n"
        assert list(parse_suppressions(text)) == [2]


class TestReconciliation:
    def analyze(self, text, module="repro.system.fixture"):
        return Analyzer().check_source(text, "src/repro/system/fixture.py", module)

    def test_reasoned_suppression_silences(self):
        findings = self.analyze(
            "xs = list({1, 2})  # repro-lint: disable=set-iteration -- fixture\n"
        )
        assert findings == []

    def test_reasonless_suppression_does_not_silence(self):
        findings = self.analyze(
            "xs = list({1, 2})  # repro-lint: disable=set-iteration\n"
        )
        rules = sorted(f.rule for f in findings)
        assert rules == ["set-iteration", "suppression-missing-reason"]

    def test_unknown_rule_in_suppression(self):
        findings = self.analyze(
            "x = 1  # repro-lint: disable=no-such-rule -- misguided\n"
        )
        assert [f.rule for f in findings] == ["suppression-unknown-rule"]
        assert "no-such-rule" in findings[0].message

    def test_unused_suppression(self):
        findings = self.analyze(
            "x = 1  # repro-lint: disable=set-iteration -- nothing here\n"
        )
        assert [f.rule for f in findings] == ["suppression-unused"]

    def test_unused_check_off_for_filtered_rule_sets(self):
        analyzer = Analyzer(get_rules(["set-iteration"]))
        findings = analyzer.check_source(
            "x = 1  # repro-lint: disable=layering -- other rule set\n",
            "src/repro/system/fixture.py",
            "repro.system.fixture",
        )
        assert findings == []

    def test_stale_suppression_reported_for_filtered_rule_sets(self):
        analyzer = Analyzer(get_rules(["set-iteration"]))
        findings = analyzer.check_source(
            "x = 1  # repro-lint: disable=set-iteration -- stale\n",
            "src/repro/system/fixture.py",
            "repro.system.fixture",
        )
        assert [f.rule for f in findings] == ["suppression-unused"]
        assert "(set-iteration)" in findings[0].message

    def test_suppression_for_wrong_rule_does_not_silence(self):
        findings = self.analyze(
            "xs = list({1, 2})  # repro-lint: disable=layering -- wrong rule\n"
        )
        rules = sorted(f.rule for f in findings)
        assert rules == ["set-iteration", "suppression-unused"]

    def test_parse_error_is_a_finding(self):
        findings = self.analyze("def broken(:\n")
        assert [f.rule for f in findings] == ["parse-error"]
        assert findings[0].line == 1

    def test_findings_sorted_by_position(self):
        findings = self.analyze(
            "xs = []\n"
            "a = list({1, 2})\n"
            "b = sorted([1], key=id)\n"
        )
        assert [f.line for f in findings] == [2, 3]


class TestRegistry:
    def test_known_rule_names_include_meta(self):
        names = known_rule_names()
        assert set(META_RULES) <= names
        assert "set-iteration" in names and "layering" in names

    def test_get_rules_raises_on_unknown(self):
        with pytest.raises(KeyError):
            get_rules(["set-iteration", "made-up"])


class TestReporters:
    def findings(self):
        return [
            Finding(path="a.py", line=3, column=1, rule="set-iteration",
                    message="set order", severity="error"),
            Finding(path="b.py", line=1, column=2, rule="spec-deadline-vacuous",
                    message="vacuous", severity="warning"),
        ]

    def test_text_contains_path_line_col_and_summary(self):
        text = render_text(self.findings(), files_checked=2)
        assert "a.py:3:1: error: [set-iteration] set order" in text
        assert "1 error(s), 1 warning(s) in 2 file(s) checked" in text

    def test_text_clean_summary(self):
        assert "clean: 4 file(s) checked" in render_text([], 4)

    def test_json_schema(self):
        document = json.loads(render_json(self.findings(), files_checked=2))
        assert document["version"] == JSON_SCHEMA_VERSION
        assert document["tool"] == "repro-lint"
        assert document["files_checked"] == 2
        assert document["counts"] == {"error": 1, "warning": 1}
        assert len(document["findings"]) == 2
        for entry in document["findings"]:
            assert tuple(entry) == FINDING_FIELDS
        assert document["findings"][0]["path"] == "a.py"
        assert document["findings"][0]["line"] == 3

    def test_json_round_trips_empty(self):
        document = json.loads(render_json([], files_checked=0))
        assert document["findings"] == []
        assert document["counts"] == {"error": 0, "warning": 0}
