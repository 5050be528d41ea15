"""CLI contract tests for ``repro-lint`` and the ``repro check --lint``
integration: exit codes 0/1/2, the text ``file:line`` format, the JSON
reporter schema, and the rule catalogue."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis.lint import FINDING_FIELDS, JSON_SCHEMA_VERSION, SPEC_RULES
from repro.analysis.lint.cli import main as lint_main
from repro.cli import main as repro_main

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_REPRO = REPO_ROOT / "src" / "repro"
EXAMPLES = REPO_ROOT / "examples" / "specs"

CLEAN_PY = "def f():\n    return 1\n"
DIRTY_PY = "xs = []\nfor x in {1, 2}:\n    xs.append(x)\n"

GOOD_REQUEST = json.loads((EXAMPLES / "check_request.json").read_text())


def write_module(tmp_path, text, name="fixture.py"):
    """A file the analyzer maps into repro.system (deterministic scope)."""
    module_dir = tmp_path / "src" / "repro" / "system"
    module_dir.mkdir(parents=True, exist_ok=True)
    path = module_dir / name
    path.write_text(text)
    return path


class TestCodeCommand:
    def test_clean_file_exits_0(self, tmp_path, capsys):
        path = write_module(tmp_path, CLEAN_PY)
        assert lint_main(["code", str(path)]) == 0
        assert "clean: 1 file(s) checked" in capsys.readouterr().out

    def test_findings_exit_1_with_file_line(self, tmp_path, capsys):
        path = write_module(tmp_path, DIRTY_PY)
        assert lint_main(["code", str(path)]) == 1
        out = capsys.readouterr().out
        assert f"{path}:2:" in out
        assert "[set-iteration]" in out
        assert "1 error(s)" in out

    def test_json_format(self, tmp_path, capsys):
        path = write_module(tmp_path, DIRTY_PY)
        assert lint_main(["code", "--format", "json", str(path)]) == 1
        document = json.loads(capsys.readouterr().out)
        assert document["version"] == JSON_SCHEMA_VERSION
        assert document["tool"] == "repro-lint"
        assert document["counts"]["error"] == 1
        (finding,) = document["findings"]
        assert tuple(finding) == FINDING_FIELDS
        assert finding["rule"] == "set-iteration"
        assert finding["line"] == 2

    def test_rules_filter(self, tmp_path, capsys):
        path = write_module(tmp_path, DIRTY_PY)
        assert lint_main(["code", "--rules", "layering", str(path)]) == 0
        assert lint_main(["code", "--rules", "set-iteration", str(path)]) == 1
        capsys.readouterr()

    def test_half_stale_mixed_suppression_is_unused_under_code(
        self, tmp_path, capsys
    ):
        # Only the flow rule fires on this line: flow is satisfied, but
        # the set-iteration name on the same comment silences nothing.
        path = write_module(
            tmp_path,
            "import time\n"
            "def now():\n"
            "    return time.time()  # repro-lint: disable=set-iteration,"
            "flow-nondeterminism -- fixture\n",
        )
        assert lint_main(["flow", str(path.parent)]) == 0
        capsys.readouterr()
        assert lint_main(["code", str(path)]) == 1
        out = capsys.readouterr().out
        assert f"{path}:3:1: error: [suppression-unused] suppression " \
            "(set-iteration) silences nothing" in out

    def test_unknown_rule_exits_2(self, tmp_path, capsys):
        path = write_module(tmp_path, CLEAN_PY)
        assert lint_main(["code", "--rules", "no-such-rule", str(path)]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_folded_rule_names_exit_2(self, tmp_path, capsys):
        path = write_module(tmp_path, CLEAN_PY)
        for name in ("wall-clock", "unseeded-random", "float-literal"):
            assert lint_main(["code", "--rules", name, str(path)]) == 2
            assert "unknown rule" in capsys.readouterr().err

    def test_missing_path_exits_2(self, capsys):
        assert lint_main(["code", "/nonexistent/nowhere.py"]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_src_repro_is_clean(self, capsys):
        """Acceptance criterion: exit 0 on the repo's own source."""
        assert lint_main(["code", str(SRC_REPRO)]) == 0
        capsys.readouterr()


class TestSpecCommand:
    def test_clean_spec_exits_0(self, capsys):
        assert lint_main(["spec", str(EXAMPLES / "check_request.json")]) == 0
        capsys.readouterr()

    def test_directory_scan_quick(self, capsys):
        assert lint_main(["spec", "--quick", str(EXAMPLES)]) == 0
        out = capsys.readouterr().out
        assert "file(s) checked" in out

    def test_findings_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"kind": "mystery"}))
        assert lint_main(["spec", str(bad)]) == 1
        out = capsys.readouterr().out
        assert f"{bad}:1:" in out and "[spec-syntax]" in out

    def test_json_format(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(
            {"kind": "fault_plan", "seed": 1, "revocation_rate": 9}
        ))
        assert lint_main(["spec", "--format", "json", str(bad)]) == 1
        document = json.loads(capsys.readouterr().out)
        assert [f["rule"] for f in document["findings"]] == ["spec-fault-plan"]

    def test_missing_file_exits_2(self, capsys):
        assert lint_main(["spec", "/nonexistent/spec.json"]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_directory_without_specs_exits_2(self, tmp_path, capsys):
        assert lint_main(["spec", str(tmp_path)]) == 2
        assert "no spec files" in capsys.readouterr().err


class TestRulesCommand:
    def test_catalogue_lists_every_rule(self, capsys):
        assert lint_main(["rules"]) == 0
        out = capsys.readouterr().out
        for name in ("set-iteration", "id-ordering", "float-compare",
                     "layering", "suppression-unused", "flow-nondeterminism",
                     "flow-exactness"):
            assert f"{name}:" in out
        # Folded into flow taint: no longer code rules.
        for name in ("wall-clock", "unseeded-random", "float-literal"):
            assert f"{name}:" not in out
        for name in SPEC_RULES:
            assert f"{name}:" in out
        assert "disable=" in out  # suppression syntax documented


class TestUsageErrors:
    def test_no_command_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            lint_main([])
        assert excinfo.value.code == 2

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            lint_main(["code", "--frobnicate"])
        assert excinfo.value.code == 2


class TestReproCheckLint:
    def request_file(self, tmp_path, payload):
        path = tmp_path / "request.json"
        path.write_text(json.dumps(payload))
        return str(path)

    def test_valid_request_admitted(self, tmp_path, capsys):
        path = self.request_file(tmp_path, GOOD_REQUEST)
        assert repro_main(["check", "--lint", path]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["admitted"] is True
        assert captured.err == ""

    def test_lint_error_blocks_admission(self, tmp_path, capsys):
        payload = json.loads(json.dumps(GOOD_REQUEST))
        payload["requirement"]["phases"][0]["amounts"][0]["quantity"] = 10**6
        path = self.request_file(tmp_path, payload)
        assert repro_main(["check", "--lint", path]) == 1
        captured = capsys.readouterr()
        assert "spec-supply-shortfall" in captured.err
        assert captured.out == ""  # no admission attempted

    def test_lint_warning_passes_through_to_admission(self, tmp_path, capsys):
        payload = json.loads(json.dumps(GOOD_REQUEST))
        payload["requirement"]["window"]["end"] = "inf"
        path = self.request_file(tmp_path, payload)
        assert repro_main(["check", "--lint", path]) == 0
        captured = capsys.readouterr()
        assert "spec-deadline-vacuous" in captured.err
        assert json.loads(captured.out)["admitted"] is True

    def test_without_lint_flag_no_screen(self, tmp_path, capsys):
        payload = json.loads(json.dumps(GOOD_REQUEST))
        payload["requirement"]["window"]["end"] = "inf"
        path = self.request_file(tmp_path, payload)
        assert repro_main(["check", path]) == 0
        assert capsys.readouterr().err == ""

    def test_missing_request_file_exits_2(self, capsys):
        assert repro_main(["check", "/nonexistent/request.json"]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_invalid_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "request.json"
        path.write_text("{not json")
        assert repro_main(["check", str(path)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_wrong_shape_exits_2(self, tmp_path, capsys):
        path = self.request_file(tmp_path, {"kind": "scenario"})
        assert repro_main(["check", path]) == 2
        assert "'resources' and" in capsys.readouterr().err

    def test_malformed_wire_exits_2(self, tmp_path, capsys):
        payload = json.loads(json.dumps(GOOD_REQUEST))
        payload["resources"]["terms"][0]["rate"] = -3
        path = self.request_file(tmp_path, payload)
        assert repro_main(["check", path]) == 2
        assert "malformed request" in capsys.readouterr().err

    def test_non_object_resources_exits_2(self, tmp_path, capsys):
        payload = json.loads(json.dumps(GOOD_REQUEST))
        payload["resources"] = []
        path = self.request_file(tmp_path, payload)
        assert repro_main(["check", path]) == 2
        assert "malformed request" in capsys.readouterr().err


class TestReproReplayExitCodes:
    def test_missing_trace_exits_2(self, capsys):
        code = repro_main(
            ["replay", "/nonexistent/trace.jsonl", "--horizon", "10"]
        )
        assert code == 2
        assert "cannot read" in capsys.readouterr().err

    def test_malformed_resources_exits_2(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        trace.write_text("")
        resources = tmp_path / "resources.json"
        resources.write_text("{not json")
        code = repro_main(
            ["replay", str(trace), "--resources", str(resources),
             "--horizon", "10"]
        )
        assert code == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_replay_of_shipped_trace_runs(self, capsys):
        code = repro_main(
            ["replay", str(EXAMPLES / "trace_small.jsonl"),
             "--horizon", "30"]
        )
        assert code == 0
        assert "replay of" in capsys.readouterr().out
