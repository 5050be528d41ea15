"""``repro-lint flow``: exit contract, JSON schema, engine integration."""

import json

from repro.analysis.lint.cli import main
from repro.analysis.lint.engine import Analyzer, known_rule_names
from repro.analysis.lint.layering import LAYERS


def _write(tmp_path, rel, text):
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return path


class TestExitContract:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        _write(tmp_path, "src/repro/logic/pure.py", "def f():\n    return 1\n")
        assert main(["flow", str(tmp_path / "src/repro")]) == 0
        assert "clean:" in capsys.readouterr().out

    def test_findings_exit_one(self, tmp_path, capsys):
        _write(tmp_path, "src/repro/system/bad.py", "_registry = {}\n")
        assert main(["flow", str(tmp_path / "src/repro")]) == 1
        assert "flow-shared-state" in capsys.readouterr().out

    def test_missing_path_exits_two(self, tmp_path, capsys):
        assert main(["flow", str(tmp_path / "nope")]) == 2


class TestJsonOutput:
    def test_document_shape(self, tmp_path, capsys):
        _write(tmp_path, "src/repro/system/bad.py", "_registry = {}\n")
        main(["flow", str(tmp_path / "src/repro"), "--format", "json"])
        document = json.loads(capsys.readouterr().out)
        assert document["version"] == 1
        assert document["tool"] == "repro-lint flow"
        assert document["counts"]["error"] == 1
        [finding] = document["findings"]
        assert finding["rule"] == "flow-shared-state"
        assert finding["line"] == 1
        # The code document plus call-graph stats, and nothing else (the
        # ranked isolation section is gone).
        assert sorted(document) == [
            "counts", "files_checked", "findings", "stats", "tool", "version",
        ]
        assert document["stats"]["functions"] >= 1

    def test_parse_error_reported_with_engine_rule(self, tmp_path, capsys):
        _write(tmp_path, "src/repro/system/broken.py", "def broken(:\n")
        assert main(["flow", str(tmp_path / "src/repro")]) == 1
        assert "parse-error" in capsys.readouterr().out


class TestRulesCatalogue:
    def test_flow_rules_listed(self, capsys):
        assert main(["rules"]) == 0
        out = capsys.readouterr().out
        assert "flow rules (repro-lint flow):" in out
        for name in (
            "flow-nondeterminism",
            "flow-exactness",
            "flow-snapshot-coverage",
            "flow-shared-state",
        ):
            assert name in out
        assert "flow-annotation" not in out


class TestEngineIntegration:
    """The two tools share one suppression namespace."""

    def test_flow_rules_are_known_to_the_engine(self):
        known = known_rule_names()
        assert "flow-shared-state" in known
        assert "flow-snapshot-coverage" in known
        assert not any(name.startswith("flow-annotation") for name in known)

    def test_code_analyzer_accepts_flow_suppression_without_unknown_rule(self):
        findings = Analyzer().check_source(
            "_cache = {}  # repro-lint: disable=flow-shared-state"
            " -- discharged by repro-lint flow\n",
            "src/repro/system/zshared.py",
        )
        assert findings == []

    def test_code_analyzer_still_flags_truly_unknown_rules(self):
        findings = Analyzer().check_source(
            "x = 1  # repro-lint: disable=flow-bogus-rule -- no such rule\n",
            "src/repro/system/zbogus.py",
        )
        assert [f.rule for f in findings] == ["suppression-unknown-rule"]

    def test_markers_module_is_declared_in_kernel_layer(self):
        assert "markers" in dict(LAYERS)["kernel"]
