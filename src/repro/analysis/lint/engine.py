"""Core of the ``repro-lint`` static-analysis framework.

The engine is deliberately small: a :class:`Finding` value type, a
:class:`Rule` plug-in protocol with a process-wide registry, and an
:class:`Analyzer` that parses Python sources once, fans each file out to
every rule whose *scope* covers the file's dotted module, and reconciles
the raw findings against the per-line suppressions of
:mod:`repro.analysis.lint.suppressions`.

Rules never do I/O and never see raw paths — they receive a parsed
:class:`SourceFile` and yield findings.  That keeps them trivially
testable against in-memory fixture snippets and keeps the analysis
itself deterministic and exact, the very properties it polices.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.analysis.lint.suppressions import (
    META_RULES,
    parse_suppressions,
    reconcile,
)

#: Severities, in decreasing order of gravity.  Any finding — warning or
#: error — makes the CLI exit 1; the split only drives presentation and
#: the ``repro check --lint`` screen (which blocks on errors only).
SEVERITIES = ("error", "warning")


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation, anchored to a ``path:line:column``."""

    path: str
    line: int
    column: int
    rule: str
    message: str
    severity: str = "error"

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(f"unknown severity {self.severity!r}")

    def render(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.column}: "
            f"{self.severity}: [{self.rule}] {self.message}"
        )


@dataclass
class SourceFile:
    """A parsed Python source handed to every applicable rule."""

    path: str
    text: str
    module: Optional[str]
    tree: ast.AST

    @property
    def package(self) -> Optional[str]:
        return package_of(self.module) if self.module else None


def module_of(path: str | Path) -> Optional[str]:
    """Dotted module name for a file under a ``repro`` package root.

    Recognises ``.../src/repro/...`` layouts as well as an installed
    ``.../repro/...`` directory; returns ``None`` for paths outside any
    ``repro`` tree (such files get no repro-scoped findings).
    """
    parts = Path(path).parts
    for index in range(len(parts) - 1, -1, -1):
        if parts[index] != "repro":
            continue
        anchored = index == 0 or parts[index - 1] in ("src", "site-packages")
        if anchored or "repro" not in parts[:index]:
            dotted = list(parts[index:])
            dotted[-1] = dotted[-1].removesuffix(".py")
            if dotted[-1] == "__init__":
                dotted.pop()
            return ".".join(dotted)
    return None


def package_of(module: str) -> str:
    """Top-level ``repro`` sub-package a dotted module belongs to.

    ``repro.system.simulator`` -> ``system``; root modules map to their
    own name (``repro.cli`` -> ``cli``); the root package itself maps to
    ``repro``.
    """
    parts = module.split(".")
    return parts[1] if len(parts) > 1 else parts[0]


class Rule:
    """Plug-in protocol: subclass, set ``name``, implement :meth:`check`.

    ``scope`` is a tuple of dotted-module prefixes the rule governs; the
    engine only invokes the rule on files whose module matches one of
    them (``None`` means every ``repro`` module).  Prefixes match at
    package boundaries: ``repro.system`` covers ``repro.system.node``
    but not ``repro.systematic``.
    """

    name: str = ""
    description: str = ""
    severity: str = "error"
    scope: Optional[Tuple[str, ...]] = None
    #: Dotted-module prefixes carved *out* of ``scope`` — for sanctioned
    #: enclaves inside a governed package (e.g. the float64 vector
    #: kernels inside the exact-arithmetic ``repro.resources``).
    exempt: Tuple[str, ...] = ()

    def applies_to(self, module: Optional[str]) -> bool:
        if module is None:
            return False
        if any(
            module == prefix or module.startswith(prefix + ".")
            for prefix in self.exempt
        ):
            return False
        if self.scope is None:
            return module == "repro" or module.startswith("repro.")
        return any(
            module == prefix or module.startswith(prefix + ".")
            for prefix in self.scope
        )

    def check(self, source: SourceFile) -> Iterable[Finding]:
        raise NotImplementedError

    # Helper for subclasses ------------------------------------------------
    def finding(
        self, source: SourceFile, node: ast.AST | None, message: str
    ) -> Finding:
        line = getattr(node, "lineno", 1) if node is not None else 1
        column = getattr(node, "col_offset", 0) if node is not None else 0
        return Finding(
            path=source.path,
            line=line,
            column=column + 1,
            rule=self.name,
            message=message,
            severity=self.severity,
        )


_REGISTRY: Dict[str, Rule] = {}


def register(cls: type) -> type:
    """Class decorator adding one (stateless) rule instance to the registry."""
    rule = cls()
    if not rule.name:
        raise ValueError(f"rule {cls.__name__} has no name")
    if rule.name in _REGISTRY or rule.name in META_RULES:
        raise ValueError(f"duplicate rule name {rule.name!r}")
    _REGISTRY[rule.name] = rule
    return cls


def all_rules() -> Tuple[Rule, ...]:
    """Every registered code rule, in registration order."""
    _load_builtin_rules()
    return tuple(_REGISTRY.values())


def get_rules(names: Sequence[str]) -> Tuple[Rule, ...]:
    """Resolve rule names, raising ``KeyError`` on the first unknown one."""
    _load_builtin_rules()
    missing = [name for name in names if name not in _REGISTRY]
    if missing:
        raise KeyError(missing[0])
    return tuple(_REGISTRY[name] for name in names)


def known_rule_names() -> frozenset:
    """Code-rule, meta-rule, and flow-rule names — the one namespace all
    suppressions live in, whichever tool discharges them."""
    _load_builtin_rules()
    # Late import of the (leaf) flow namespace module: the flow package
    # imports the engine, not vice versa.
    from repro.analysis.flow.names import FLOW_RULES

    return frozenset(_REGISTRY) | frozenset(META_RULES) | frozenset(FLOW_RULES)


def _load_builtin_rules() -> None:
    # Imported for the @register side effects; late to avoid a cycle
    # (rule modules import this one for the base class).
    from repro.analysis.lint import layering, rules_code  # noqa: F401


class Analyzer:
    """Run a rule set over sources and reconcile suppressions."""

    def __init__(self, rules: Optional[Sequence[Rule]] = None) -> None:
        self.rules: Tuple[Rule, ...] = (
            tuple(rules) if rules is not None else all_rules()
        )

    # ------------------------------------------------------------------
    def check_source(
        self, text: str, path: str, module: Optional[str] = None
    ) -> List[Finding]:
        """Analyse one in-memory source; ``module`` overrides path sniffing."""
        suppressions = parse_suppressions(text)
        module = module if module is not None else module_of(path)
        raw: List[Finding] = []
        try:
            tree = ast.parse(text)
        except SyntaxError as exc:
            raw.append(
                Finding(
                    path=path,
                    line=exc.lineno or 1,
                    column=(exc.offset or 0) + 1,
                    rule="parse-error",
                    message=f"file does not parse: {exc.msg}",
                )
            )
        else:
            source = SourceFile(path=path, text=text, module=module, tree=tree)
            for rule in self.rules:
                if rule.applies_to(module):
                    raw.extend(rule.check(source))
        ran = {rule.name for rule in self.rules} | {"parse-error"}
        return reconcile(raw, {path: suppressions}, ran, known_rule_names())

    def check_file(self, path: str | Path) -> List[Finding]:
        return self.check_source(Path(path).read_text(), str(path))

    def check_paths(
        self, paths: Iterable[str | Path]
    ) -> Tuple[List[Finding], int]:
        """Analyse files and directories; returns (findings, files checked)."""
        findings: List[Finding] = []
        checked = 0
        for path in python_files(paths):
            findings.extend(self.check_file(path))
            checked += 1
        findings.sort()
        return findings, checked


def python_files(paths: Iterable[str | Path]) -> Iterator[Path]:
    """Every ``.py`` file named by ``paths``, directories walked in
    sorted order."""
    for path in paths:
        path = Path(path)
        if path.is_dir():
            yield from sorted(
                p for p in path.rglob("*.py") if "__pycache__" not in p.parts
            )
        else:
            yield path


def exit_code(findings: Sequence[Finding]) -> int:
    """The CLI contract: 0 clean, 1 findings (usage errors exit 2)."""
    return 1 if findings else 0
