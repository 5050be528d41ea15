"""Shared-state escape analysis: process-global mutable state."""

from repro.analysis.flow import FlowAnalyzer, build_program
from repro.analysis.flow.escape import escape_findings


def _run(sources, paths=()):
    return FlowAnalyzer().check_paths(list(paths), sources=sources)


def test_module_level_mutable_in_scope_is_a_finding():
    result = _run({
        "src/repro/system/zstate.py": "_registry = {}\n",
    })
    findings = [f for f in result.findings if f.rule == "flow-shared-state"]
    assert len(findings) == 1
    assert "_registry" in findings[0].message


def test_module_level_mutable_outside_scope_is_not():
    result = _run({
        "src/repro/logic/zstate.py": "_registry = {}\n",
    })
    assert not [f for f in result.findings if f.rule == "flow-shared-state"]


def test_dunder_metadata_is_not_an_escape():
    result = _run({
        "src/repro/system/zall.py": "__all__ = ['a', 'b']\n",
    })
    assert not [f for f in result.findings if f.rule == "flow-shared-state"]


def test_immutable_module_constant_is_not_an_escape():
    result = _run({
        "src/repro/system/zconst.py": "LIMIT = 5\nNAMES = ('a', 'b')\n",
    })
    assert not [f for f in result.findings if f.rule == "flow-shared-state"]


def test_ambient_singleton_instance_is_a_finding():
    result = _run({
        "src/repro/system/zsing.py": (
            "class Counter:\n"
            "    def __init__(self):\n"
            "        self.n = 0\n"
            "_shared = Counter()\n"
        ),
    })
    findings = [f for f in result.findings if f.rule == "flow-shared-state"]
    assert len(findings) == 1
    assert "ambient singleton" in findings[0].message


def test_class_level_mutable_default_is_a_finding():
    result = _run({
        "src/repro/decision/zdefault.py": (
            "class Pool:\n"
            "    members = []\n"
        ),
    })
    findings = [f for f in result.findings if f.rule == "flow-shared-state"]
    assert len(findings) == 1
    assert "Pool.members" in findings[0].message


def test_global_statement_is_a_finding():
    result = _run({
        "src/repro/encapsulation/zglob.py": (
            "_mode = 'off'\n"
            "def set_mode(mode):\n"
            "    global _mode\n"
            "    _mode = mode\n"
        ),
    })
    globals_found = [
        f for f in result.findings
        if f.rule == "flow-shared-state" and "global" in f.message
    ]
    assert len(globals_found) == 1


def test_reasoned_suppression_silences_and_is_consumed():
    result = _run({
        "src/repro/system/zok.py": (
            "_cache = {}  # repro-lint: disable=flow-shared-state"
            " -- test sanction: read-only after import\n"
        ),
    })
    assert not [f for f in result.findings if f.rule == "flow-shared-state"]
    assert not [f for f in result.findings if f.rule == "suppression-unused"]


def test_real_tree_has_no_shared_state_even_suppressed():
    program = build_program(["src/repro"])
    assert not escape_findings(program)
    sanctioned = [
        (path, line)
        for path, by_line in program.suppressions.items()
        for line, suppression in by_line.items()
        if "flow-shared-state" in suppression.rules
    ]
    assert not sanctioned
