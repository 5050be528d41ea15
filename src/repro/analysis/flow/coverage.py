"""Checkpoint-coverage proof for snapshot-bearing classes.

PR 9 existed because wire state silently went missing from checkpoints:
``MeshPolicy`` grew attributes faster than its snapshot grew keys, and
nothing noticed until a crash-recovery replay diverged.  This pass makes
the invariant a machine-checked proof obligation:

    for every class marked :func:`repro.markers.checkpointable` (plus
    the four seed classes, pinned by name so deleting a decorator cannot
    silently drop them), **every attribute ever assigned on ``self``**
    must be either

    * *captured* — read by one of the class's snapshot methods
      (``state_snapshot`` / ``network_snapshot`` / ``__getstate__`` /
      the simulator's ``_snapshot_sections``),
      directly or through same-class helpers they call, including a
      wholesale ``dict(self.__dict__)`` minus the names it pops — or
    * *deliberately not captured* — its finding, anchored at the
      attribute's first assignment, silenced by a reasoned
      ``# repro-lint: disable=flow-snapshot-coverage -- <reason>`` on
      that line (stale once the snapshot starts capturing it).

Restore methods deliberately do **not** count as capture: restoring an
attribute proves it *would* round-trip if captured, not that it is.
The wholesale form resolves pops through class-level string-tuple
constants (``for name in self._WIRE_STATE: state.pop(name, ...)``), so
the PR 9 idiom of "everything except the wire section" is understood
exactly.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set, Tuple

from repro.analysis.flow.callgraph import ClassNode, Program
from repro.analysis.lint.engine import Finding

#: Methods whose body constitutes the capture proof.
CAPTURE_METHODS: Tuple[str, ...] = (
    "state_snapshot",
    "network_snapshot",
    "__getstate__",
    "_snapshot_sections",
)

#: Classes under the proof regardless of decoration — the contract
#: cannot be exited by deleting a decorator line.
SEED_CLASSES: Tuple[str, ...] = (
    "repro.system.channel.MessageChannel",
    "repro.encapsulation.lease.LeaseTable",
    "repro.faults.netfaults.MeshPolicy",
    "repro.decision.admission.AdmissionController",
)

_CHECKPOINTABLE_MARKER = "repro.markers.checkpointable"


def checkpointable_classes(program: Program) -> List[ClassNode]:
    out: List[ClassNode] = []
    for qname in sorted(program.classes):
        cls = program.classes[qname]
        if qname in SEED_CLASSES:
            out.append(cls)
            continue
        for decorator in cls.decorators:
            if program.resolve(cls.module, decorator) == _CHECKPOINTABLE_MARKER:
                out.append(cls)
                break
    return out


def _method_ast(program: Program, fn_qname: str) -> Optional[ast.FunctionDef]:
    fn = program.functions.get(fn_qname)
    if fn is None:
        return None
    source = program.files.get(fn.path)
    if source is None:
        return None
    for node in ast.walk(source.tree):
        if (
            isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name == fn.name
            and node.lineno == fn.line
        ):
            return node
    return None


def _class_constant(
    program: Program, cls: ClassNode, name: str
) -> Optional[Tuple[str, ...]]:
    for ancestor in program.mro(cls.qname):
        found = program.classes[ancestor].str_constants.get(name)
        if found is not None:
            return found
    return None


def _is_wholesale(node: ast.Call) -> bool:
    """``dict(self.__dict__)`` / ``self.__dict__.copy()`` / ``vars(self)``."""
    func = node.func
    if isinstance(func, ast.Name):
        if func.id == "dict" and node.args:
            arg = node.args[0]
            return (
                isinstance(arg, ast.Attribute)
                and arg.attr == "__dict__"
                and isinstance(arg.value, ast.Name)
                and arg.value.id == "self"
            )
        if func.id == "vars" and node.args:
            arg = node.args[0]
            return isinstance(arg, ast.Name) and arg.id == "self"
        return False
    if isinstance(func, ast.Attribute) and func.attr == "copy":
        owner = func.value
        return (
            isinstance(owner, ast.Attribute)
            and owner.attr == "__dict__"
            and isinstance(owner.value, ast.Name)
            and owner.value.id == "self"
        )
    return False


class _CaptureScan:
    """What one capture method (plus same-class helpers it calls) sees."""

    def __init__(self, program: Program, cls: ClassNode) -> None:
        self.program = program
        self.cls = cls
        self.reads: Set[str] = set()
        self.wholesale = False
        self.popped: Set[str] = set()
        self._visited: Set[str] = set()

    def scan(self, method_qname: str) -> None:
        if method_qname in self._visited:
            return
        self._visited.add(method_qname)
        body = _method_ast(self.program, method_qname)
        if body is None:
            return
        for node in ast.walk(body):
            if isinstance(node, ast.Attribute):
                if (
                    isinstance(node.value, ast.Name)
                    and node.value.id == "self"
                    and not isinstance(node.ctx, ast.Store)
                    and node.attr != "__dict__"
                ):
                    self.reads.add(node.attr)
            elif isinstance(node, ast.Call):
                if _is_wholesale(node):
                    self.wholesale = True
                self._scan_pop(node)
                self._follow_self_call(node)
            elif isinstance(node, ast.For):
                self._scan_pop_loop(node)
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    name = _subscript_literal(target)
                    if name is not None:
                        self.popped.add(name)

    # -- pops ----------------------------------------------------------
    def _scan_pop(self, node: ast.Call) -> None:
        func = node.func
        if not (isinstance(func, ast.Attribute) and func.attr == "pop"):
            return
        if not node.args:
            return
        arg = node.args[0]
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            self.popped.add(arg.value)

    def _scan_pop_loop(self, node: ast.For) -> None:
        """``for name in self._WIRE_STATE: state.pop(name, ...)``."""
        iterated = node.iter
        if not (
            isinstance(iterated, ast.Attribute)
            and isinstance(iterated.value, ast.Name)
            and iterated.value.id == "self"
        ):
            return
        names = _class_constant(self.program, self.cls, iterated.attr)
        if names is None:
            return
        loop_vars = {
            element.id
            for element in ast.walk(node.target)
            if isinstance(element, ast.Name)
        }
        for inner in ast.walk(node):
            if (
                isinstance(inner, ast.Call)
                and isinstance(inner.func, ast.Attribute)
                and inner.func.attr in ("pop", "__delitem__")
                and inner.args
                and isinstance(inner.args[0], ast.Name)
                and inner.args[0].id in loop_vars
            ):
                self.popped.update(names)
                return

    # -- helper recursion ----------------------------------------------
    def _follow_self_call(self, node: ast.Call) -> None:
        func = node.func
        if not (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "self"
        ):
            return
        target = self.program.lookup_method(self.cls.qname, func.attr)
        if target is not None:
            self.scan(target)


def _subscript_literal(node: ast.expr) -> Optional[str]:
    if isinstance(node, ast.Subscript):
        inner = node.slice
        if isinstance(inner, ast.Constant) and isinstance(inner.value, str):
            return inner.value
    return None


def covered_attributes(
    program: Program, cls: ClassNode
) -> Tuple[Set[str], List[str]]:
    """``(captured attribute names, capture methods found)``."""
    methods: List[str] = []
    covered: Set[str] = set()
    for name in CAPTURE_METHODS:
        qname = program.lookup_method(cls.qname, name)
        if qname is None:
            continue
        methods.append(name)
        scan = _CaptureScan(program, cls)
        scan.scan(qname)
        covered |= scan.reads
        if scan.wholesale:
            covered |= set(cls.self_attrs) - scan.popped
    return covered, methods


def coverage_findings(program: Program) -> Iterator[Finding]:
    for cls in checkpointable_classes(program):
        covered, methods = covered_attributes(program, cls)
        if not methods:
            yield Finding(
                path=cls.path,
                line=cls.line,
                column=1,
                rule="flow-snapshot-coverage",
                message=(
                    f"{cls.qname} is checkpointable but defines none of "
                    + "/".join(CAPTURE_METHODS)
                    + "; its state cannot survive a resume"
                ),
            )
            continue
        for attr in sorted(cls.self_attrs):
            if attr in covered:
                continue
            yield Finding(
                path=cls.path,
                line=cls.self_attrs[attr],
                column=1,
                rule="flow-snapshot-coverage",
                message=(
                    f"{cls.qname} assigns self.{attr} but no snapshot "
                    f"method ({', '.join(methods)}) captures it; this "
                    "state silently vanishes across a checkpoint/restore "
                    "cycle"
                ),
            )
