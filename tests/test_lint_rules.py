"""Per-rule fixtures for the code rules and the flow sources they hand
off to, plus the self-checks the issue demands: every registered rule
has at least one failing fixture, the repo's own source is clean, and
an injected ``time.time()`` in ``repro.system`` is demonstrably caught."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.flow import FlowAnalyzer
from repro.analysis.lint import (
    LAYERS,
    META_RULES,
    Analyzer,
    all_rules,
    allowed_imports,
    get_rules,
    import_violation,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_REPRO = REPO_ROOT / "src" / "repro"

DET_PATH = "src/repro/system/fixture.py"  # deterministic scope
EXACT_PATH = "src/repro/resources/fixture.py"  # exact-arithmetic scope
OUT_OF_SCOPE_PATH = "src/repro/logic/fixture.py"  # neither scope

#: Source families that were line rules once and are flow taint now:
#: a direct hit in a governed module is a zero-hop flow finding.  Their
#: fixtures keep the old family names.
FOLDED = {
    "wall-clock": "flow-nondeterminism",
    "unseeded-random": "flow-nondeterminism",
    "float-literal": "flow-exactness",
}
TAINT_RULES = frozenset(FOLDED.values())

# family -> (path, [bad snippets], [good snippets]).  Bad snippets must
# produce at least one finding for exactly that rule (the flow rule, for
# a folded family); good snippets must produce none at all under the
# full code analyzer plus flow taint.
FIXTURES = {
    "wall-clock": (
        DET_PATH,
        [
            "import time\nt = time.time()\n",
            "import time as clock\nt = clock.monotonic()\n",
            "from time import perf_counter\nt = perf_counter()\n",
            "import datetime\nnow = datetime.datetime.now()\n",
            "from datetime import datetime\nnow = datetime.utcnow()\n",
        ],
        [
            "def advance(state, delta):\n    return state.now + delta\n",
            # a local variable named time is not the module
            "def f(time):\n    return time.time()\n",
        ],
    ),
    "unseeded-random": (
        DET_PATH,
        [
            "import random\nx = random.random()\n",
            "import random\nrng = random.Random()\n",
            "import random\nrng = random.SystemRandom()\n",
            "import os\nnoise = os.urandom(8)\n",
            "import uuid\ntoken = uuid.uuid4()\n",
            "import secrets\nk = secrets.token_bytes(16)\n",
            "import numpy.random as npr\nrng = npr.default_rng()\n",
        ],
        [
            "import random\nrng = random.Random(42)\n",
            "import random\n\ndef make(seed):\n    return random.Random(seed)\n",
            # a seeded numpy rng is no source either, but the layering
            # rule pins numpy imports to the vector kernels, so the
            # clean-everywhere fixture sticks to stdlib random
            "import random\nrng = random.Random(7)\n",
        ],
    ),
    "set-iteration": (
        DET_PATH,
        [
            "for x in {1, 2, 3}:\n    print(x)\n",
            "xs = [x for x in {1, 2}]\n",
            "xs = list(set([3, 1, 2]))\n",
            "xs = tuple(frozenset((1, 2)))\n",
            "for i, x in enumerate({'a', 'b'}):\n    print(i, x)\n",
        ],
        [
            "for x in sorted({3, 1, 2}):\n    print(x)\n",
            "for x in [1, 2, 3]:\n    print(x)\n",
            "xs = sorted(set([3, 1, 2]))\n",
            "present = 2 in {1, 2, 3}\n",  # membership is order-free
        ],
    ),
    "id-ordering": (
        DET_PATH,
        [
            "xs = sorted([object(), object()], key=id)\n",
            "xs = [3, 1]\nxs.sort(key=id)\n",
            "worst = max([object()], key=lambda o: id(o))\n",
        ],
        [
            "xs = sorted(['b', 'a'])\n",
            "xs = sorted([('b', 1)], key=lambda p: p[0])\n",
        ],
    ),
    "float-literal": (
        EXACT_PATH,
        [
            "x = 0.5\n",
            "def f():\n    return 1e-6\n",
        ],
        [
            "from fractions import Fraction\nx = Fraction(1, 2)\n",
            "x = 5\n",
        ],
    ),
    "float-compare": (
        EXACT_PATH,
        [
            "def f(x):\n    return x == 0.5\n",
            "def f(x):\n    return float(x) != x\n",
            "def f(a, b):\n    return a == b == 1.5\n",
        ],
        [
            "def f(x):\n    return x == 5\n",
            "def f(x):\n    return x < 2\n",
        ],
    ),
    "layering": (
        "src/repro/intervals/fixture.py",
        [
            "from repro.system import simulator\n",
            "import repro.decision.admission\n",
            "from repro import workloads\n",
        ],
        [
            "from repro.errors import RotaError\n",
            "from repro.intervals import algebra\n",
            "import fractions\n",
        ],
    ),
    # Meta rules fire during reconciliation rather than from an AST walk;
    # their fixtures live on the deterministic path so the suppressed rule
    # exists in scope.
    "parse-error": (DET_PATH, ["def broken(:\n"], []),
    "suppression-missing-reason": (
        DET_PATH,
        [
            "import time\n"
            "t = time.time()  # repro-lint: disable=flow-nondeterminism\n"
        ],
        [],
    ),
    "suppression-unknown-rule": (
        DET_PATH,
        ["x = 1  # repro-lint: disable=bogus-rule -- misguided\n"],
        [],
    ),
    "suppression-unused": (
        DET_PATH,
        ["x = 1  # repro-lint: disable=set-iteration -- nothing to silence\n"],
        [],
    ),
}


def run(text, path):
    """The code analyzer's findings plus flow taint's, for one file."""
    flow = FlowAnalyzer().check_paths([], sources={path: text})
    return sorted(
        Analyzer().check_source(text, path)
        + [f for f in flow.findings if f.rule in TAINT_RULES]
    )


@pytest.mark.parametrize(
    "rule,path,snippet",
    [
        (rule, path, snippet)
        for rule, (path, bad, _good) in sorted(FIXTURES.items())
        for snippet in bad
    ],
)
def test_bad_fixture_triggers_rule(rule, path, snippet):
    findings = run(snippet, path)
    expected = FOLDED.get(rule, rule)
    assert any(f.rule == expected for f in findings), (
        f"expected a {expected} finding, got {[f.render() for f in findings]}"
    )
    for finding in findings:
        assert finding.path == path
        assert finding.line >= 1 and finding.column >= 1


@pytest.mark.parametrize(
    "rule,path,snippet",
    [
        (rule, path, snippet)
        for rule, (path, _bad, good) in sorted(FIXTURES.items())
        for snippet in good
    ],
)
def test_good_fixture_is_clean(rule, path, snippet):
    findings = run(snippet, path)
    assert findings == [], [f.render() for f in findings]


def test_every_registered_rule_has_a_failing_fixture():
    """Self-check: a rule nobody can trip is a rule nobody tests."""
    registered = {rule.name for rule in all_rules()} | set(META_RULES)
    with_bad_fixture = {rule for rule, (_p, bad, _g) in FIXTURES.items() if bad}
    assert registered <= with_bad_fixture, (
        f"rules without a failing fixture: {sorted(registered - with_bad_fixture)}"
    )


def test_folded_rules_are_gone_from_the_registry():
    names = {rule.name for rule in all_rules()}
    assert not names & set(FOLDED)
    for name in FOLDED:
        with pytest.raises(KeyError):
            get_rules([name])


# Parity with the retired line rules: every snippet they flagged (their
# bad fixtures above, plus the placements an AST walk sees that a body
# walk could miss) is exactly one flow finding, on the line where the
# line rule fired.  (family, path, snippet, line)
PARITY = [
    (rule, path, snippet, len(snippet.splitlines()))
    for rule in FOLDED
    for path, bad, _good in [FIXTURES[rule]]
    for snippet in bad
] + [
    ("wall-clock", DET_PATH,
     "import time\n\nclass Clock:\n    started = time.time()\n", 4),
    ("wall-clock", DET_PATH,
     "import time\n\ndef stamp(at=time.time()):\n    return at\n", 3),
    ("wall-clock", DET_PATH,
     "def now():\n    import time\n    return time.time()\n", 3),
    ("wall-clock", DET_PATH,
     "import time\nif True:\n    def f():\n        return time.time()\n", 4),
    ("wall-clock", DET_PATH,
     "import time\n\ndef outer():\n    class Local:\n"
     "        at = time.time()\n    return Local\n", 5),
    ("unseeded-random", DET_PATH,
     "import random\n\ndef draw(*, rng=random.Random()):\n    return rng\n", 3),
    ("float-literal", EXACT_PATH, "class Tolerance:\n    eps = 1e-6\n", 2),
    ("float-literal", EXACT_PATH,
     "def scale(x, *, by=0.5):\n    return x * by\n", 1),
    ("float-literal", EXACT_PATH,
     "class Meter:\n    def read(self, t=0.25):\n        return t\n", 2),
    ("float-literal", EXACT_PATH,
     "class Outer:\n    class Inner:\n        def f(self, t=2):\n"
     "            return t * 0.25\n", 4),
    ("float-literal", EXACT_PATH,
     "import functools\n\n@functools.lru_cache(maxsize=int(1e3))\n"
     "def f():\n    return 1\n", 3),
]


@pytest.mark.parametrize("family,path,snippet,line", PARITY)
def test_folded_source_is_one_zero_hop_flow_finding(family, path, snippet, line):
    findings = [f for f in run(snippet, path) if f.rule in TAINT_RULES]
    assert [(f.rule, f.line) for f in findings] == [(FOLDED[family], line)], (
        [f.render() for f in findings]
    )


@pytest.mark.parametrize(
    "path,snippet",
    [(OUT_OF_SCOPE_PATH, snippet) for _family, _path, snippet, _line in PARITY]
    + [
        ("src/repro/resources/_vectorized.py", snippet)
        for family, _path, snippet, _line in PARITY
        if family == "float-literal"
    ],
)
def test_folded_sources_outside_the_governed_modules_are_clean(path, snippet):
    assert not [f for f in run(snippet, path) if f.rule in TAINT_RULES]


def test_scoped_rules_ignore_out_of_scope_modules():
    for rule in ("wall-clock", "unseeded-random", "set-iteration", "id-ordering"):
        _path, bad, _good = FIXTURES[rule]
        findings = run(bad[0], OUT_OF_SCOPE_PATH)
        assert not any(f.rule == FOLDED.get(rule, rule) for f in findings)
    for rule in ("float-literal", "float-compare"):
        _path, bad, _good = FIXTURES[rule]
        findings = run(bad[0], OUT_OF_SCOPE_PATH)
        assert not any(f.rule == FOLDED.get(rule, rule) for f in findings)


def test_decision_package_is_in_both_scopes():
    findings = run("import time\nx = 0.5\nt = time.time()\n",
                   "src/repro/decision/fixture.py")
    assert [(f.rule, f.line) for f in findings] == [
        ("flow-exactness", 2), ("flow-nondeterminism", 3),
    ]


def test_repo_source_is_clean():
    """Acceptance criterion: repro-lint over src/repro reports nothing."""
    analyzer = Analyzer()
    findings, checked = analyzer.check_paths([str(SRC_REPRO)])
    assert checked > 50
    assert findings == [], "\n".join(f.render() for f in findings)


def test_injected_wall_clock_in_simulator_is_caught():
    """Acceptance criterion: the determinism check demonstrably catches
    an injected ``time.time()`` call in ``repro.system``, at its line."""
    real = SRC_REPRO / "system" / "simulator.py"
    text = real.read_text(encoding="utf-8")
    injected = text + "\n\nimport time\n\ndef _leak():\n    return time.time()\n"
    expected_line = len(injected.splitlines())  # the return time.time() line

    result = FlowAnalyzer().check_paths([], sources={str(real): injected})
    clocks = [f for f in result.findings if f.rule == "flow-nondeterminism"]
    assert len(clocks) == 1
    assert clocks[0].path == str(real)
    assert clocks[0].line == expected_line
    assert "time.time" in clocks[0].message


class TestThirdPartyPin:
    """The layering rule pins ``numpy`` to the inexact vector kernels:
    the exact Fraction path and the ``_reference_*`` oracles must never
    silently acquire a numpy dependency."""

    KERNEL_PATH = "src/repro/resources/_vectorized.py"

    def test_numpy_import_outside_kernels_is_flagged(self):
        for snippet in (
            "import numpy\n",
            "import numpy as np\n",
            "from numpy import searchsorted\n",
            "import numpy.linalg\n",
        ):
            findings = run(snippet, EXACT_PATH)
            assert any(
                f.rule == "layering" and "pinned" in f.message
                for f in findings
            ), snippet

    def test_numpy_import_inside_kernels_is_clean(self):
        findings = run("import numpy as _np\n", self.KERNEL_PATH)
        assert findings == [], [f.render() for f in findings]

    def test_pin_applies_beyond_the_resources_package(self):
        findings = run("import numpy\n", DET_PATH)
        assert any(f.rule == "layering" for f in findings)

    def test_unpinned_third_party_is_untouched(self):
        from repro.analysis.lint.layering import third_party_pin_violation

        assert third_party_pin_violation("repro.system.sim", "itertools") is None
        message = third_party_pin_violation("repro.system.sim", "numpy")
        assert message is not None and "_vectorized" in message
        assert third_party_pin_violation(
            "repro.resources._vectorized", "numpy"
        ) is None
        # Prefixes match at module boundaries, not as raw strings.
        assert third_party_pin_violation(
            "repro.resources._vectorized_extras", "numpy"
        ) is not None

    def test_float_rules_exempt_the_kernels(self):
        """The exact-arithmetic checks scope to ``repro.resources`` but
        carve out the float64 kernel module — floats are its job."""
        snippet = "threshold = 0.5\n\ndef f(x, by=0.25):\n    return x == 0.5\n"
        flagged = {f.rule for f in run(snippet, EXACT_PATH)}
        assert {"flow-exactness", "float-compare"} <= flagged
        assert run(snippet, self.KERNEL_PATH) == []


class TestLayeringMap:
    def test_every_actual_package_is_declared(self):
        packages = sorted(
            p.name for p in SRC_REPRO.iterdir()
            if p.is_dir() and (p / "__init__.py").exists()
        )
        top_modules = sorted(
            p.stem for p in SRC_REPRO.glob("*.py") if p.stem != "__init__"
        )
        declared = {m for _layer, members in LAYERS for m in members}
        for name in packages + top_modules:
            assert name in declared, f"repro.{name} missing from LAYERS"

    def test_declared_packages_without_stale_entries(self):
        declared = {m for _layer, members in LAYERS for m in members}
        on_disk = {
            p.name for p in SRC_REPRO.iterdir()
            if p.is_dir() and (p / "__init__.py").exists()
        } | {p.stem for p in SRC_REPRO.glob("*.py") if p.stem != "__init__"}
        on_disk.add("repro")  # the root package maps to itself
        stale = declared - on_disk
        assert stale == set(), f"LAYERS declares nonexistent packages: {sorted(stale)}"

    def test_downward_import_is_allowed(self):
        assert import_violation("system", "resources") is None
        assert import_violation("decision", "intervals") is None
        assert import_violation("cli", "system") is None

    def test_upward_import_is_rejected(self):
        message = import_violation("intervals", "system")
        assert message is not None and "strictly downward" in message

    def test_runtime_cycle_is_sanctioned(self):
        assert import_violation("system", "faults") is None
        assert import_violation("faults", "workloads") is None
        assert import_violation("workloads", "system") is None

    def test_same_layer_import_rejected_outside_runtime(self):
        assert import_violation("resources", "observability") is not None

    def test_observability_override(self):
        assert import_violation("observability", "errors") is None
        message = import_violation("observability", "resources")
        assert message is not None and "instruments" in message

    def test_undeclared_package_is_itself_a_violation(self):
        message = import_violation("intervals", "nonexistent")
        assert message is not None and "layering map" in message
        assert allowed_imports("nonexistent") is None

    def test_service_may_not_reach_into_the_runtime(self):
        # No module-granular carve-out remains: the front door reaching
        # for the mesh's message channel is an upward import like any other.
        assert import_violation("service", "system") is not None
        findings = Analyzer(get_rules(["layering"])).check_source(
            "from repro.system.channel import MessageChannel\n",
            "src/repro/service/fixture.py",
            "repro.service.fixture",
        )
        assert [f.rule for f in findings] == ["layering"]

    def test_layering_rule_resolves_relative_imports(self):
        # ``from ..system import simulator`` inside repro.intervals
        findings = Analyzer(get_rules(["layering"])).check_source(
            "from ..system import simulator\n",
            "src/repro/intervals/fixture.py",
            "repro.intervals.fixture",
        )
        assert [f.rule for f in findings] == ["layering"]
