"""Checkpoint-coverage proof: semantics, suppressions, and the seeded
mutation self-checks against the real runtime source."""

import re
from pathlib import Path

from repro.analysis.flow import FlowAnalyzer

NETFAULTS = Path("src/repro/faults/netfaults.py")
ADMISSION = Path("src/repro/decision/admission.py")
TRACING = Path("src/repro/system/tracing.py")


def _coverage(sources, paths=()):
    result = FlowAnalyzer().check_paths(list(paths), sources=sources)
    return [f for f in result.findings if f.rule == "flow-snapshot-coverage"]


def test_uncaptured_attribute_is_a_finding():
    findings = _coverage({
        "src/repro/logic/zckpt.py": (
            "from repro.markers import checkpointable\n"
            "@checkpointable\n"
            "class Store:\n"
            "    def __init__(self):\n"
            "        self._kept = {}\n"
            "        self._lost = []\n"
            "    def state_snapshot(self):\n"
            "        return {'kept': dict(self._kept)}\n"
        ),
    }, paths=["src/repro/markers.py"])
    assert len(findings) == 1
    assert "self._lost" in findings[0].message
    assert findings[0].line == 6


def test_derivable_annotation_discharges_the_obligation():
    result = FlowAnalyzer().check_paths(["src/repro/markers.py"], sources={
        "src/repro/logic/zckpt.py": (
            "from repro.markers import checkpointable\n"
            "@checkpointable\n"
            "class Store:\n"
            "    def __init__(self):\n"
            "        self._kept = {}\n"
            "        self._cache = {}  # repro-lint: disable="
            "flow-snapshot-coverage -- rebuilt lazily\n"
            "    def state_snapshot(self):\n"
            "        return {'kept': dict(self._kept)}\n"
        ),
    })
    # The obligation is discharged, and the suppression counts as used.
    assert result.findings == []


def test_suppression_for_covered_attribute_is_reported_unused():
    result = FlowAnalyzer().check_paths(["src/repro/markers.py"], sources={
        "src/repro/logic/zstale.py": (
            "from repro.markers import checkpointable\n"
            "@checkpointable\n"
            "class Store:\n"
            "    def __init__(self):\n"
            "        self._a = 1  # repro-lint: disable="
            "flow-snapshot-coverage -- stale: the snapshot captures it\n"
            "    def state_snapshot(self):\n"
            "        return {'a': self._a}\n"
        ),
    })
    assert [(f.rule, f.line) for f in result.findings] == [
        ("suppression-unused", 5)
    ]
    assert result.findings[0].message.startswith(
        "suppression (flow-snapshot-coverage) silences nothing"
    )


def test_wholesale_getstate_covers_everything_except_pops():
    findings = _coverage({
        "src/repro/logic/zwhole.py": (
            "from repro.markers import checkpointable\n"
            "@checkpointable\n"
            "class Store:\n"
            "    def __init__(self):\n"
            "        self._a = 1\n"
            "        self._b = 2\n"
            "    def __getstate__(self):\n"
            "        state = dict(self.__dict__)\n"
            "        state.pop('_b', None)\n"
            "        return state\n"
        ),
    }, paths=["src/repro/markers.py"])
    assert len(findings) == 1
    assert "self._b" in findings[0].message


def test_class_constant_pop_loop_is_resolved():
    findings = _coverage({
        "src/repro/logic/zconst.py": (
            "from repro.markers import checkpointable\n"
            "@checkpointable\n"
            "class Store:\n"
            "    _VOLATILE = ('_b', '_c')\n"
            "    def __init__(self):\n"
            "        self._a = 1\n"
            "        self._b = 2\n"
            "        self._c = 3\n"
            "    def __getstate__(self):\n"
            "        state = dict(self.__dict__)\n"
            "        for name in self._VOLATILE:\n"
            "            state.pop(name, None)\n"
            "        return state\n"
        ),
    }, paths=["src/repro/markers.py"])
    named = {f.message.split("assigns self.")[1].split(" ")[0] for f in findings}
    assert named == {"_b", "_c"}


def test_capture_through_same_class_helper_counts():
    findings = _coverage({
        "src/repro/logic/zhelper.py": (
            "from repro.markers import checkpointable\n"
            "@checkpointable\n"
            "class Store:\n"
            "    def __init__(self):\n"
            "        self._a = 1\n"
            "    def state_snapshot(self):\n"
            "        return self._serialize()\n"
            "    def _serialize(self):\n"
            "        return {'a': self._a}\n"
        ),
    }, paths=["src/repro/markers.py"])
    assert findings == []


def test_restore_method_does_not_count_as_capture():
    findings = _coverage({
        "src/repro/logic/zrestore.py": (
            "from repro.markers import checkpointable\n"
            "@checkpointable\n"
            "class Store:\n"
            "    def __init__(self):\n"
            "        self._a = 1\n"
            "    def state_snapshot(self):\n"
            "        return {}\n"
            "    def restore_state(self, snapshot):\n"
            "        self._a = snapshot.get('a', 1)\n"
        ),
    }, paths=["src/repro/markers.py"])
    assert len(findings) == 1
    assert "self._a" in findings[0].message


def test_checkpointable_class_without_snapshot_method_is_a_finding():
    findings = _coverage({
        "src/repro/logic/znosnap.py": (
            "from repro.markers import checkpointable\n"
            "@checkpointable\n"
            "class Store:\n"
            "    def __init__(self):\n"
            "        self._a = 1\n"
        ),
    }, paths=["src/repro/markers.py"])
    assert len(findings) == 1
    assert "defines none of" in findings[0].message


def test_undecorated_class_is_not_under_the_proof():
    findings = _coverage({
        "src/repro/logic/zplain.py": (
            "class Store:\n"
            "    def __init__(self):\n"
            "        self._a = 1\n"
            "    def state_snapshot(self):\n"
            "        return {}\n"
        ),
    })
    assert findings == []


# ----------------------------------------------------------------------
# Seeded mutation self-checks (ISSUE acceptance criteria): tampering
# with the real snapshot methods must flip the analysis to a failing
# finding naming the lost attribute.
# ----------------------------------------------------------------------
def test_mutation_dropping_leases_from_mesh_snapshot_is_caught():
    original = NETFAULTS.read_text()
    capture_line = '            "leases": self._leases.state_snapshot(),\n'
    assert capture_line in original, "fixture drifted: update the capture line"
    mutated = original.replace(capture_line, "")
    findings = _coverage(
        {str(NETFAULTS): mutated}, paths=["src/repro"]
    )
    named = [f for f in findings if "self._leases" in f.message]
    assert len(named) == 1
    assert "MeshPolicy" in named[0].message


def test_mutation_popping_schedules_from_admission_getstate_is_caught():
    original = ADMISSION.read_text()
    anchor = "        state = dict(self.__dict__)\n"
    assert anchor in original, "fixture drifted: update the anchor line"
    mutated = original.replace(
        anchor, anchor + '        state.pop("_schedules", None)\n', 1
    )
    findings = _coverage(
        {str(ADMISSION): mutated}, paths=["src/repro"]
    )
    named = [f for f in findings if "self._schedules" in f.message]
    assert len(named) == 1
    assert "AdmissionController" in named[0].message


def test_mutation_deleting_the_trace_ledger_annotation_is_caught():
    original = TRACING.read_text()
    suppression = re.compile(
        r"  # repro-lint: disable=flow-snapshot-coverage -- [^\n]*"
    )
    mutated, count = suppression.subn("", original)
    assert count == 4, "fixture drifted: update the ledger suppressions"
    findings = _coverage({str(TRACING): mutated}, paths=["src/repro"])
    named = {
        f.message.split("assigns self.")[1].split(" ")[0] for f in findings
    }
    assert named == {"_consumed", "_expired", "_lost", "_lost_by_cause"}
    assert all("SimulationTrace" in f.message for f in findings)


def test_unmutated_tree_passes_the_proof():
    findings = _coverage({}, paths=["src/repro"])
    assert findings == []
