"""Code rules protecting the replay-verify and exact-arithmetic contracts.

Two module families are governed:

* **Deterministic modules** (``repro.system``, ``repro.decision``,
  ``repro.faults``, ...) — everything on the replay path.  The
  write-ahead journal (PR 3) re-executes these modules and verifies that
  pinned decisions recur bit-for-bit; set iteration order and
  ``id()``-keyed ordering silently break that contract in ways only a
  diverging replay reveals.

* **Exact-arithmetic modules** (``repro.resources``, ``repro.decision``)
  — the Theorem 1–4 decision procedures run on ``int``/``Fraction``
  arithmetic; a ``==``/``!=`` against a float smuggles rounding into
  proofs that are otherwise exact.

The *sources* of nondeterminism and inexactness (host clocks, ambient or
unseeded randomness, environment reads, float literals) are not line
rules: ``repro-lint flow`` (:mod:`repro.analysis.flow.taint`) reports
them, a source inside a governed module as a zero-hop chain and one
reached through calls with its witness chain.  The module families
below are shared with it.

All detection is purely syntactic over the AST (a builtin name rebound
by an import no longer counts as the builtin); the rules
over-approximate nothing and under-approximate consciously (a set
reaching a loop through a variable is invisible) — see
docs/static-analysis.md for the catalogue and the blind spots.
"""

from __future__ import annotations

import ast
from typing import FrozenSet, Iterable, Tuple

from repro.analysis.lint.engine import Finding, Rule, SourceFile, register

#: Modules whose behaviour must replay bit-identically (PR 3 journal).
DETERMINISTIC_MODULES: Tuple[str, ...] = (
    "repro.system",
    "repro.decision",
    "repro.faults",
    # The front door's shed/breaker/brownout decisions must replay
    # byte-identically under a fixed seed (PR 6).
    "repro.service",
    "repro.backoff",
    # Lease grant/renewal/expiry instants feed the conservation identity
    # and the partition-matrix replay oracle (PR 8).
    "repro.encapsulation",
)

#: Modules whose arithmetic must stay exact (int/Fraction only).
EXACT_MODULES: Tuple[str, ...] = (
    "repro.resources",
    "repro.decision",
)

#: The sanctioned *inexact* enclave inside the exact-arithmetic
#: substrate: the float64 vector kernels that serve profiles whose
#: ``is_exact()`` is already false.  Float literals and float compares
#: are that module's whole job, so the exactness checks carve it out —
#: and the ``layering`` rule pins ``numpy`` imports to exactly here,
#: so the carve-out cannot silently widen.
INEXACT_KERNELS: Tuple[str, ...] = ("repro.resources._vectorized",)


def _is_set_expr(node: ast.expr, shadowed: FrozenSet[str]) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        # set()/frozenset() are flagged only when the name still means the
        # builtin (not shadowed by an import).
        return node.func.id in ("set", "frozenset") and node.func.id not in shadowed
    return False


@register
class SetIterationRule(Rule):
    """No order-dependent iteration over sets."""

    name = "set-iteration"
    description = (
        "no for-loops, comprehensions, or list()/tuple()/enumerate() over "
        "bare sets in deterministic modules — set order varies with "
        "PYTHONHASHSEED; wrap in sorted(...) to fix an order"
    )
    scope = DETERMINISTIC_MODULES

    _ORDER_SENSITIVE_WRAPPERS = ("list", "tuple", "enumerate", "iter")

    def check(self, source: SourceFile) -> Iterable[Finding]:
        shadowed = self._imported_names(source.tree)
        for node in ast.walk(source.tree):
            if isinstance(node, ast.For) and _is_set_expr(node.iter, shadowed):
                yield self._finding(source, node.iter, "for-loop")
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
            ):
                for generator in node.generators:
                    if _is_set_expr(generator.iter, shadowed):
                        yield self._finding(source, generator.iter, "comprehension")
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in self._ORDER_SENSITIVE_WRAPPERS
                and node.func.id not in shadowed
                and node.args
                and _is_set_expr(node.args[0], shadowed)
            ):
                yield self._finding(source, node.args[0], f"{node.func.id}()")

    @staticmethod
    def _imported_names(tree: ast.AST) -> FrozenSet[str]:
        """Local names bound by imports: a builtin shadowed by one
        (``from sets import set``) no longer means the builtin."""
        names = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    names.add(alias.asname or alias.name.split(".")[0])
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                for alias in node.names:
                    if alias.name != "*":
                        names.add(alias.asname or alias.name)
        return frozenset(names)

    def _finding(self, source: SourceFile, node: ast.expr, where: str) -> Finding:
        return self.finding(
            source,
            node,
            f"{where} iterates a set in deterministic module "
            f"{source.module}; iteration order varies across processes "
            "(PYTHONHASHSEED) — sort it first (sorted(...) is sanctioned)",
        )


def _is_id_key(node: ast.expr) -> bool:
    if isinstance(node, ast.Name) and node.id == "id":
        return True
    if isinstance(node, ast.Lambda):
        body = node.body
        return (
            isinstance(body, ast.Call)
            and isinstance(body.func, ast.Name)
            and body.func.id == "id"
        )
    return False


@register
class IdOrderingRule(Rule):
    """No ordering keyed on ``id()``."""

    name = "id-ordering"
    description = (
        "no sorted(..., key=id) / .sort(key=id) / min/max(key=id) in "
        "deterministic modules: id() is an address, different every run"
    )
    scope = DETERMINISTIC_MODULES

    _ORDERING_CALLS = ("sorted", "min", "max", "sort")

    def check(self, source: SourceFile) -> Iterable[Finding]:
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            name = None
            if isinstance(node.func, ast.Name):
                name = node.func.id
            elif isinstance(node.func, ast.Attribute):
                name = node.func.attr
            if name not in self._ORDERING_CALLS:
                continue
            for keyword in node.keywords:
                if keyword.arg == "key" and _is_id_key(keyword.value):
                    yield self.finding(
                        source,
                        node,
                        f"{name}(key=id) orders by memory address, which "
                        "differs on every run and every replay; key on a "
                        "stable attribute (label, sequence number) instead",
                    )


def _is_float_operand(node: ast.expr) -> bool:
    if isinstance(node, ast.Constant) and isinstance(node.value, float):
        return True
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "float"
    ):
        return True
    return False


@register
class FloatCompareRule(Rule):
    """No exact equality against floats."""

    name = "float-compare"
    description = (
        "no ==/!= where an operand is a float literal or float(...) in "
        "exact-arithmetic modules; equality on floats is rounding "
        "roulette — compare exact values, or test a tolerance explicitly"
    )
    scope = EXACT_MODULES
    exempt = INEXACT_KERNELS

    def check(self, source: SourceFile) -> Iterable[Finding]:
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                if _is_float_operand(left) or _is_float_operand(right):
                    symbol = "==" if isinstance(op, ast.Eq) else "!="
                    yield self.finding(
                        source,
                        node,
                        f"{symbol} against a float in exact-arithmetic "
                        f"module {source.module}; exact values compare "
                        "exactly, floats never should",
                    )
