"""Nondeterminism and exactness taint: one reporter, direct and transitive.

A *source* is a host-clock read, process-global or OS randomness, a
seedable generator constructed without a seed, or an environment read
(nondeterminism), or a bare float literal (exactness).  Sources are
found in function bodies, in class bodies and module bodies (the
``<module>`` node), and in default-argument expressions, which count
against the function they parametrize.

Propagation runs *backwards* over the call graph: every function that
directly touches a source is tainted, every caller of a tainted
function is tainted, and functions in the sanctioned transit modules
(``repro.observability`` — whose clock readings never feed back into
simulated state — and, for exactness, the declared float64 kernels)
absorb taint instead of carrying it.  Each source is reported once:

* a source inside a governed module is a **zero-hop** finding at the
  source line itself;
* a call *from* a governed-module function *to* a tainted function
  outside the governed scope is a **boundary** finding at the call,
  carrying the full shortest witness chain ``caller → hop → … →
  source`` with ``path:line`` anchors.

A source line sanctioned by a reasoned ``# repro-lint: disable=`` naming
the flow rule does not seed taint and is not reported.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.flow.callgraph import FunctionNode, Program
from repro.analysis.lint.engine import Finding
from repro.analysis.lint.rules_code import (
    DETERMINISTIC_MODULES,
    EXACT_MODULES,
    INEXACT_KERNELS,
)

#: Modules whose functions absorb nondeterminism taint instead of
#: carrying it: the observability registry's clock reads are sanctioned
#: because their readings are strictly *telemetry* (PR 5 contract).
NONDET_EXEMPT_TRANSIT: Tuple[str, ...] = ("repro.observability",)

#: Modules whose functions absorb exactness taint: the declared float64
#: kernels (floats are their job) and telemetry (floats never flow back).
EXACT_EXEMPT_TRANSIT: Tuple[str, ...] = INEXACT_KERNELS + (
    "repro.observability",
)

#: Wall-clock and CPU-clock reads.  ``registry.now()`` (observability)
#: is the sanctioned route for *timing* because its readings never feed
#: back into simulated state.
_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "time.localtime",
        "time.gmtime",
        "time.ctime",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

_AMBIENT_RANDOM_PREFIXES = ("secrets.", "numpy.random.")
_AMBIENT_RANDOM_CALLS = frozenset({"os.urandom", "uuid.uuid4", "uuid.uuid1"})

#: Generator constructors: deterministic when handed a seed, OS entropy
#: when called with no arguments at all.
_SEEDABLE_CONSTRUCTORS = frozenset({"random.Random", "numpy.random.default_rng"})

_ENV_CALLS = frozenset({"os.getenv", "os.environ.get", "os.getenvb"})

#: What each nondeterminism source kind should be replaced with.
_NONDET_REMEDY = {
    "clock": "simulated time is the only clock the replay contract admits",
    "random": (
        "the process-global RNG's state is perturbed by any import; use a "
        "locally seeded random.Random(seed)"
    ),
    "entropy": "derive all randomness from an explicit plan/scenario seed",
    "env": (
        "configuration must arrive through explicit plan/scenario "
        "parameters, never ambient process state"
    ),
}


@dataclass(frozen=True)
class TaintSource:
    """Why a function is directly tainted."""

    kind: str  # "clock" | "random" | "entropy" | "env" | "float"
    detail: str  # e.g. "time.time() reads the host clock"
    line: int


def _in_modules(module: str, prefixes: Sequence[str]) -> bool:
    return any(
        module == prefix or module.startswith(prefix + ".")
        for prefix in prefixes
    )


def _sanctioned(program: Program, fn: FunctionNode, line: int, rule: str) -> bool:
    suppression = program.suppressions.get(fn.path, {}).get(line)
    if (
        suppression is None
        or not suppression.has_reason
        or rule not in suppression.rules
    ):
        return False
    suppression.used.add(rule)  # a consumed sanction is never stale
    return True


def classify_external(dotted: str, *, argless: bool) -> Optional[Tuple[str, str]]:
    """``(kind, human detail)`` when a call to ``dotted`` is a
    nondeterminism source, else ``None``.  ``argless`` says the call
    passed no arguments: a seedable constructor is a source only then."""
    if dotted in _CLOCK_CALLS:
        return "clock", f"{dotted}() reads the host clock"
    if dotted in _SEEDABLE_CONSTRUCTORS:
        if argless:
            return "entropy", f"{dotted}() without a seed draws OS entropy"
        return None
    if dotted == "random.SystemRandom" or dotted in _AMBIENT_RANDOM_CALLS:
        return "entropy", f"{dotted}() draws OS entropy"
    if dotted.startswith("random."):
        return "random", f"{dotted}() uses the process-global RNG"
    if dotted.startswith(_AMBIENT_RANDOM_PREFIXES):
        return "entropy", f"{dotted}() is ambient randomness"
    if dotted in _ENV_CALLS or dotted.startswith("os.environ."):
        return "env", f"{dotted}() reads the process environment"
    return None


def nondet_sources(program: Program, fn: FunctionNode) -> List[TaintSource]:
    out: List[TaintSource] = []
    for dotted, line in fn.external_calls:
        classified = classify_external(
            dotted, argless=(dotted, line) in fn.argless_calls
        )
        if classified is None or _sanctioned(
            program, fn, line, "flow-nondeterminism"
        ):
            continue
        kind, detail = classified
        out.append(TaintSource(kind=kind, detail=detail, line=line))
    for detail, line in fn.env_reads:
        if _sanctioned(program, fn, line, "flow-nondeterminism"):
            continue
        out.append(
            TaintSource(
                kind="env",
                detail=f"{detail} reads the process environment",
                line=line,
            )
        )
    return out


def float_sources(program: Program, fn: FunctionNode) -> List[TaintSource]:
    return [
        TaintSource(kind="float", detail="bare float literal", line=line)
        for line in fn.float_lines
        if not _sanctioned(program, fn, line, "flow-exactness")
    ]


class _TaintMap:
    """Backward-propagated taint with witness reconstruction."""

    def __init__(
        self,
        program: Program,
        direct: Dict[str, List[TaintSource]],
        exempt_transit: Sequence[str],
    ) -> None:
        self.program = program
        self.direct = direct
        self.exempt = tuple(exempt_transit)
        #: qname -> (next hop qname or None for a direct source,
        #:           call line in qname that continues the chain,
        #:           the source at the chain's end)
        self.witness: Dict[str, Tuple[Optional[str], int, TaintSource]] = {}
        self._propagate()

    def _carries(self, qname: str) -> bool:
        fn = self.program.functions.get(qname)
        return fn is not None and not _in_modules(fn.module, self.exempt)

    def _propagate(self) -> None:
        program = self.program
        callers: Dict[str, List[Tuple[str, int]]] = {}
        for fn in program.functions.values():
            for callee, line, _kind in fn.calls:
                callers.setdefault(callee, []).append((fn.qname, line))
        queue: deque[str] = deque()
        for qname in sorted(self.direct):
            if not self._carries(qname):
                continue
            sources = self.direct[qname]
            if not sources:
                continue
            first = min(sources, key=lambda s: s.line)
            self.witness[qname] = (None, first.line, first)
            queue.append(qname)
        # BFS from the sources outward gives every tainted function a
        # *shortest* witness chain, deterministically (sorted seeds,
        # FIFO worklist, first-writer-wins).
        while queue:
            current = queue.popleft()
            source = self.witness[current][2]
            for caller, line in sorted(callers.get(current, [])):
                if caller in self.witness or not self._carries(caller):
                    continue
                self.witness[caller] = (current, line, source)
                queue.append(caller)

    def tainted(self, qname: str) -> bool:
        return qname in self.witness

    def chain(self, qname: str) -> List[Tuple[str, str, int]]:
        """``(qname, path, line)`` hops from ``qname`` down to the source
        line; the last entry anchors the source itself."""
        out: List[Tuple[str, str, int]] = []
        cursor: Optional[str] = qname
        while cursor is not None:
            nxt, line, _source = self.witness[cursor]
            fn = self.program.functions[cursor]
            out.append((cursor, fn.path, line))
            cursor = nxt
        return out


def _render_chain(
    caller: FunctionNode,
    call_line: int,
    hops: List[Tuple[str, str, int]],
    source: TaintSource,
) -> str:
    parts = [f"{caller.qname} ({caller.path}:{call_line})"]
    for qname, path, line in hops:
        parts.append(f"{qname} ({path}:{line})")
    parts.append(f"{source.detail} at {hops[-1][1]}:{hops[-1][2]}")
    return " -> ".join(parts)


def _findings(
    program: Program,
    direct: Dict[str, List[TaintSource]],
    *,
    rule: str,
    exempt_transit: Sequence[str],
    sink_modules: Sequence[str],
    sink_exempt: Sequence[str],
    contract: str,
    zero_hop: Callable[[FunctionNode, TaintSource], str],
) -> Iterator[Finding]:
    taint = _TaintMap(program, direct, exempt_transit)

    def in_sink(module: str) -> bool:
        return _in_modules(module, sink_modules) and not _in_modules(
            module, sink_exempt
        )

    seen: Set[Tuple[str, int, str]] = set()
    for qname in sorted(program.functions):
        fn = program.functions[qname]
        if not in_sink(fn.module):
            continue
        for source in direct.get(qname, ()):
            key = (fn.path, source.line, source.detail)
            if key in seen:
                continue
            seen.add(key)
            yield Finding(
                path=fn.path,
                line=source.line,
                column=1,
                rule=rule,
                message=zero_hop(fn, source),
            )
        for callee, line, _kind in fn.calls:
            target = program.functions.get(callee)
            if target is None or not taint.tainted(callee):
                continue
            if in_sink(target.module):
                continue  # intra-scope hop; the source reports zero-hop
            key = (qname, line, callee)
            if key in seen:
                continue
            seen.add(key)
            hops = taint.chain(callee)
            source = taint.witness[callee][2]
            yield Finding(
                path=fn.path,
                line=line,
                column=1,
                rule=rule,
                message=(
                    f"call into {callee} transitively reaches a source "
                    f"({source.detail}), {contract}; witness: "
                    + _render_chain(fn, line, hops, source)
                ),
            )


def nondeterminism_findings(program: Program) -> Iterator[Finding]:
    return _findings(
        program,
        {
            qname: nondet_sources(program, fn)
            for qname, fn in program.functions.items()
        },
        rule="flow-nondeterminism",
        exempt_transit=NONDET_EXEMPT_TRANSIT,
        sink_modules=DETERMINISTIC_MODULES,
        sink_exempt=(),
        contract=(
            "which the replay-verify contract of deterministic modules "
            "forbids at any call depth"
        ),
        zero_hop=lambda fn, source: (
            f"{source.detail} inside deterministic module {fn.module}; "
            + _NONDET_REMEDY[source.kind]
        ),
    )


def exactness_findings(program: Program) -> Iterator[Finding]:
    return _findings(
        program,
        {
            qname: float_sources(program, fn)
            for qname, fn in program.functions.items()
        },
        rule="flow-exactness",
        exempt_transit=EXACT_EXEMPT_TRANSIT,
        sink_modules=EXACT_MODULES,
        sink_exempt=INEXACT_KERNELS,
        contract=(
            "smuggling rounding into the int/Fraction arithmetic the "
            "Theorem 1-4 procedures rely on"
        ),
        zero_hop=lambda fn, source: (
            f"{source.detail} in exact-arithmetic module {fn.module}; use "
            "int/Fraction, or sanction a tolerance boundary with a "
            "reasoned suppression"
        ),
    )
