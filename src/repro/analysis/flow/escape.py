"""Shared-state escape analysis: process-global mutable state.

A run is a path fixed by the system's own state and inputs.  State that
lives at module level escapes every instance: a module-level dict or an
ambient singleton is shared by every simulator the process builds, a
class-level mutable default by every instance of the class, and a
``global`` statement writes memory no instance owns.  Any of them makes
what a run computes (or writes) depend on what else ran earlier in the
same process — a determinism hazard.  This pass reports each one in the
packages that decide a run (``repro.system``, ``repro.encapsulation``,
``repro.decision``) as a ``flow-shared-state`` finding; a deliberate
ambient object carries a reasoned suppression (a decision, written
down).
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.analysis.flow.callgraph import Program, _dotted_of
from repro.analysis.lint.engine import Finding, SourceFile

#: Packages whose state decides a run.
ESCAPE_SCOPE: Tuple[str, ...] = (
    "repro.system",
    "repro.encapsulation",
    "repro.decision",
)

#: Constructors whose result is shared mutable state at module level.
_MUTABLE_CALLS = frozenset(
    {
        "dict",
        "list",
        "set",
        "bytearray",
        "collections.defaultdict",
        "collections.deque",
        "collections.Counter",
        "collections.OrderedDict",
        "itertools.count",
        "threading.Lock",
        "threading.RLock",
        "queue.Queue",
    }
)

#: Why a process-global is a hazard, appended to every finding.
_HAZARD = "a run would depend on what else ran earlier in the process"


def _in_scope(module: Optional[str], scope: Sequence[str]) -> bool:
    return module is not None and any(
        module == prefix or module.startswith(prefix + ".")
        for prefix in scope
    )


def _mutable_value(
    program: Program, module: str, value: ast.expr
) -> Optional[str]:
    """Human description when ``value`` builds shared mutable state."""
    if isinstance(value, (ast.List, ast.ListComp)):
        return "module-level list"
    if isinstance(value, (ast.Dict, ast.DictComp)):
        return "module-level dict"
    if isinstance(value, (ast.Set, ast.SetComp)):
        return "module-level set"
    if isinstance(value, ast.Call):
        dotted = _dotted_of(value.func)
        if dotted is None:
            return None
        resolved = program.resolve(module, dotted)
        if resolved is None:
            # Unimported bare name: the builtin constructors.
            resolved = dotted if dotted in _MUTABLE_CALLS else None
        if resolved is None:
            return None
        if resolved in _MUTABLE_CALLS:
            return f"module-level {resolved}(...)"
        if resolved in program.classes:
            return f"ambient singleton instance of {resolved}"
    return None


def _module_assigns(
    source: SourceFile,
) -> Iterator[Tuple[str, ast.expr, int]]:
    for node in source.tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name):
                yield target.id, node.value, node.lineno
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            if isinstance(node.target, ast.Name):
                yield node.target.id, node.value, node.lineno


def _class_level_assigns(
    source: SourceFile,
) -> Iterator[Tuple[str, str, ast.expr, int]]:
    for node in ast.walk(source.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for child in node.body:
            if isinstance(child, ast.Assign) and len(child.targets) == 1:
                target = child.targets[0]
                if isinstance(target, ast.Name):
                    yield node.name, target.id, child.value, child.lineno


def _hazard(path: str, line: int, message: str) -> Finding:
    return Finding(
        path=path, line=line, column=1, rule="flow-shared-state",
        message=message,
    )


def escape_findings(program: Program) -> List[Finding]:
    findings: List[Finding] = []
    for path in sorted(program.files):
        source = program.files[path]
        module = source.module
        if not _in_scope(module, ESCAPE_SCOPE):
            continue
        assert module is not None
        for name, value, line in _module_assigns(source):
            if name.startswith("__") and name.endswith("__"):
                continue  # export/metadata dunders, written once at import
            detail = _mutable_value(program, module, value)
            if detail is not None:
                findings.append(_hazard(path, line, (
                    f"{detail} '{name}' is process-global state in "
                    f"{module}; {_HAZARD} — move it into instance state"
                )))
        for cls_name, attr, value, line in _class_level_assigns(source):
            detail = _mutable_value(program, module, value)
            if detail is not None:
                findings.append(_hazard(path, line, (
                    f"class-level mutable default {cls_name}.{attr} "
                    f"({detail}) is shared by every instance in the "
                    f"process; {_HAZARD} — initialise it in __init__"
                )))
        for node in ast.walk(source.tree):
            if isinstance(node, ast.Global):
                names = ", ".join(node.names)
                findings.append(_hazard(path, node.lineno, (
                    f"'global {names}' writes process-global state from "
                    f"{module}; {_HAZARD} — thread the value through "
                    "explicit state instead"
                )))
    return findings
