"""Transitive taint: witness chains, boundary reporting, sanctions."""

from repro.analysis.flow import FlowAnalyzer


def _flow(sources):
    return FlowAnalyzer().check_paths([], sources=sources)


# The satellite fixture: time.time() three call hops away from
# repro.system, asserting the witness chain names every hop at the
# right path:line.
THREE_HOP = {
    "src/repro/system/zdriver.py": (
        "from repro.logic.zhop1 import hop1\n"     # line 1
        "def drive():\n"                            # line 2
        "    return hop1()\n"                       # line 3
    ),
    "src/repro/logic/zhop1.py": (
        "from repro.logic import zhop2\n"
        "def hop1():\n"
        "    return zhop2.hop2()\n"                 # line 3
    ),
    "src/repro/logic/zhop2.py": (
        "from repro.logic.zhop3 import hop3\n"
        "def hop2():\n"
        "    return hop3()\n"                       # line 3
    ),
    "src/repro/logic/zhop3.py": (
        "import time\n"
        "def hop3():\n"
        "    return time.time()\n"                  # line 3
    ),
    "src/repro/logic/__init__.py": "",
}


def test_three_hop_clock_witness_chain_names_every_hop():
    result = _flow(THREE_HOP)
    findings = [f for f in result.findings if f.rule == "flow-nondeterminism"]
    assert len(findings) == 1
    finding = findings[0]
    # Anchored at the boundary call inside the deterministic module.
    assert finding.path == "src/repro/system/zdriver.py"
    assert finding.line == 3
    # Every hop, each at its own path:line.
    message = finding.message
    assert "repro.system.zdriver.drive (src/repro/system/zdriver.py:3)" in message
    assert "repro.logic.zhop1.hop1 (src/repro/logic/zhop1.py:3)" in message
    assert "repro.logic.zhop2.hop2 (src/repro/logic/zhop2.py:3)" in message
    assert "repro.logic.zhop3.hop3 (src/repro/logic/zhop3.py:3)" in message
    assert "time.time() reads the host clock at src/repro/logic/zhop3.py:3" in message


def test_direct_clock_call_in_sink_is_a_zero_hop_finding():
    # A source inside a deterministic module is a chain of length zero,
    # reported once, at the source line.
    result = _flow({
        "src/repro/system/zdirect.py": (
            "import time\n"
            "def now():\n"
            "    return time.time()\n"
        ),
    })
    findings = [f for f in result.findings if f.rule == "flow-nondeterminism"]
    assert [(f.path, f.line) for f in findings] == [
        ("src/repro/system/zdirect.py", 3)
    ]
    assert "time.time() reads the host clock" in findings[0].message


def test_zero_hop_and_boundary_never_report_one_source_twice():
    # An intra-scope caller of a tainted sink function adds no finding:
    # the source already reports zero-hop.
    result = _flow({
        "src/repro/system/zdirect.py": (
            "import time\n"
            "def now():\n"
            "    return time.time()\n"
            "def later():\n"
            "    return now() + 1\n"
        ),
    })
    findings = [f for f in result.findings if f.rule == "flow-nondeterminism"]
    assert [f.line for f in findings] == [3]


def test_sanctioned_source_does_not_seed_taint():
    sources = dict(THREE_HOP)
    sources["src/repro/logic/zhop3.py"] = (
        "import time\n"
        "def hop3():\n"
        "    return time.time()  # repro-lint: disable=flow-nondeterminism"
        " -- test sanction: value feeds telemetry only\n"
    )
    result = _flow(sources)
    assert not [f for f in result.findings if f.rule == "flow-nondeterminism"]
    # The sanction was consumed, so it is not reported stale either.
    assert not [f for f in result.findings if f.rule == "suppression-unused"]


def test_stale_flow_suppression_is_a_finding():
    result = _flow({
        "src/repro/logic/zclean.py": (
            "def pure():\n"
            "    return 1  # repro-lint: disable=flow-nondeterminism"
            " -- sanctions nothing\n"
        ),
    })
    stale = [f for f in result.findings if f.rule == "suppression-unused"]
    assert len(stale) == 1
    assert stale[0].line == 2


def test_observability_transit_absorbs_taint():
    result = _flow({
        "src/repro/system/zmetrics.py": (
            "from repro.observability.ztimer import stamp\n"
            "def record():\n"
            "    return stamp()\n"
        ),
        "src/repro/observability/ztimer.py": (
            "import time\n"
            "def stamp():\n"
            "    return time.time()\n"
        ),
    })
    assert not [f for f in result.findings if f.rule == "flow-nondeterminism"]


def test_unseeded_global_rng_taints_but_seeded_random_does_not():
    tainted = _flow({
        "src/repro/system/zrng.py": (
            "from repro.logic.zdraw import draw\n"
            "def use():\n"
            "    return draw()\n"
        ),
        "src/repro/logic/zdraw.py": (
            "import random\n"
            "def draw():\n"
            "    return random.random()\n"
        ),
    })
    assert [f for f in tainted.findings if f.rule == "flow-nondeterminism"]
    clean = _flow({
        "src/repro/system/zrng.py": (
            "from repro.logic.zdraw import draw\n"
            "def use():\n"
            "    return draw(7)\n"
        ),
        "src/repro/logic/zdraw.py": (
            "import random\n"
            "def draw(seed):\n"
            "    return random.Random(seed).random()\n"
        ),
    })
    assert not [f for f in clean.findings if f.rule == "flow-nondeterminism"]


def test_direct_env_read_in_sink_is_reported_chain_length_zero():
    result = _flow({
        "src/repro/system/zenv.py": (
            "import os\n"
            "def configure():\n"
            "    return os.environ['ROTA_MODE']\n"
        ),
    })
    findings = [f for f in result.findings if f.rule == "flow-nondeterminism"]
    assert len(findings) == 1
    assert findings[0].line == 3
    assert "environment" in findings[0].message


# Default arguments run when the ``def`` does; they are recorded against
# the function they parametrize, at their own line.
def test_clock_in_default_argument_taints_through_calls():
    result = _flow({
        "src/repro/system/zcaller.py": (
            "from repro.logic.zhop import hop\n"
            "def drive():\n"
            "    return hop()\n"
        ),
        "src/repro/logic/zhop.py": (
            "import time\n"
            "def hop(stamp=time.time()):\n"
            "    return stamp\n"
        ),
    })
    findings = [f for f in result.findings if f.rule == "flow-nondeterminism"]
    assert [(f.path, f.line) for f in findings] == [
        ("src/repro/system/zcaller.py", 3)
    ]
    assert (
        "time.time() reads the host clock at src/repro/logic/zhop.py:2"
        in findings[0].message
    )


def test_clock_in_default_argument_in_sink_is_zero_hop():
    result = _flow({
        "src/repro/system/zhop.py": (
            "import time\n"
            "def hop(\n"
            "    x,\n"
            "    *,\n"
            "    stamp=time.time(),\n"
            "):\n"
            "    return stamp\n"
        ),
    })
    findings = [f for f in result.findings if f.rule == "flow-nondeterminism"]
    assert [f.line for f in findings] == [5]


def test_float_in_default_argument_taints_through_calls():
    result = _flow({
        "src/repro/decision/zcaller.py": (
            "from repro.logic.zhop import hop\n"
            "def decide():\n"
            "    return hop(4)\n"
        ),
        "src/repro/logic/zhop.py": (
            "def hop(x, scale=0.5):\n"
            "    return x * scale\n"
        ),
    })
    findings = [f for f in result.findings if f.rule == "flow-exactness"]
    assert [(f.path, f.line) for f in findings] == [
        ("src/repro/decision/zcaller.py", 3)
    ]
    assert "bare float literal at src/repro/logic/zhop.py:1" in findings[0].message


def test_float_in_keyword_only_default_in_sink_is_zero_hop():
    result = _flow({
        "src/repro/decision/zhop.py": (
            "def hop(x, *, scale=0.5):\n"
            "    return x * scale\n"
        ),
    })
    findings = [f for f in result.findings if f.rule == "flow-exactness"]
    assert [f.line for f in findings] == [1]
    assert "exact-arithmetic module repro.decision.zhop" in findings[0].message


def test_unseeded_random_constructor_taints_through_calls():
    result = _flow({
        "src/repro/system/zrng.py": (
            "from repro.logic.zdraw import draw\n"
            "def use():\n"
            "    return draw()\n"
        ),
        "src/repro/logic/zdraw.py": (
            "import random\n"
            "def draw():\n"
            "    return random.Random().random()\n"
        ),
    })
    findings = [f for f in result.findings if f.rule == "flow-nondeterminism"]
    assert [(f.path, f.line) for f in findings] == [
        ("src/repro/system/zrng.py", 3)
    ]
    assert "random.Random() without a seed" in findings[0].message


def test_seeded_random_constructor_is_no_source():
    for seeded in ("random.Random(seed)", "random.Random(x=seed)"):
        result = _flow({
            "src/repro/system/zrng.py": (
                "import random\n"
                "from repro.logic.zdraw import draw\n"
                "def use(seed):\n"
                f"    return draw(seed), {seeded}\n"
            ),
            "src/repro/logic/zdraw.py": (
                "import random\n"
                "def draw(seed):\n"
                f"    return {seeded}.random()\n"
            ),
        })
        assert not [
            f for f in result.findings if f.rule == "flow-nondeterminism"
        ], seeded


def test_exactness_boundary_reports_float_reached_from_exact_module():
    result = _flow({
        "src/repro/decision/zcalc.py": (
            "from repro.logic.zblur import blur\n"
            "def decide():\n"
            "    return blur(3)\n"
        ),
        "src/repro/logic/zblur.py": (
            "def blur(x):\n"
            "    return x * 0.5\n"
        ),
    })
    findings = [f for f in result.findings if f.rule == "flow-exactness"]
    assert len(findings) == 1
    assert findings[0].path == "src/repro/decision/zcalc.py"
    assert "bare float literal at src/repro/logic/zblur.py:2" in findings[0].message


def test_exactness_ignores_sanctioned_inexact_kernels():
    result = _flow({
        "src/repro/decision/zvec.py": (
            "from repro.resources._vectorized.zkernel import fast\n"
            "def decide():\n"
            "    return fast(3)\n"
        ),
        "src/repro/resources/_vectorized/zkernel.py": (
            "def fast(x):\n"
            "    return x * 0.5\n"
        ),
    })
    assert not [f for f in result.findings if f.rule == "flow-exactness"]


def test_real_tree_is_flow_clean():
    result = FlowAnalyzer().check_paths(["src/repro"])
    assert result.findings == []
    assert result.stats["checkpointable_classes"] >= 4
