"""AST-derived whole-program call graph over the ``repro`` tree.

The code rules of :mod:`repro.analysis.lint.rules_code` see one line at
a time; everything here exists so the flow analyses can see one *call
chain* at a time.  :func:`build_program` parses every source once
(into the same :class:`~repro.analysis.lint.engine.SourceFile` the lint
engine uses), indexes every function, method, and class, and resolves
call sites through:

* **import aliases** — ``import x.y as z`` / ``from x import y as z``,
  including re-exports through package ``__init__`` modules;
* **methods** — ``self.m()`` / ``cls.m()`` resolved through the class
  and its declared bases (an approximate left-to-right MRO);
* **``super()`` dispatch** — resolved against the defining class's
  bases, skipping the class itself;
* **constructor typing** — ``v = SomeClass(...)`` and
  ``self.x = SomeClass(...)`` type the name, so later ``v.m()`` /
  ``self.x.m()`` edges resolve; parameter, variable, and return
  annotations naming repro classes type the same way;
* **properties** — reading ``obj.p`` where ``p`` is a ``@property``
  adds an edge to the getter (a read *is* a call);
* **lambdas** — a lambda body belongs to its enclosing function; nested
  ``def`` s become their own nodes joined by a ``defines`` edge (the
  closure usually escapes and runs on the caller's behalf — the
  conservative reading for taint).

Everything is static and deterministic; the documented blind spots
(``getattr`` strings, dicts of callables, monkey-patching) are listed in
docs/static-analysis.md.  Resolution *under*-approximates external
behaviour but never invents an edge that no syntactic path supports.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.lint.engine import SourceFile, module_of, python_files
from repro.analysis.lint.layering import absolute_from
from repro.analysis.lint.suppressions import Suppression, parse_suppressions

#: Call-edge kinds.  ``defines`` joins a function to a nested function
#: it creates (the closure escapes, conservatively); ``property`` joins
#: an attribute *read* to the property getter it invokes.
EDGE_KINDS = ("call", "defines", "property")


@dataclass
class FunctionNode:
    """One function, method, property getter, or ``<module>`` body."""

    qname: str
    module: str
    path: str
    line: int
    name: str
    class_qname: Optional[str] = None
    is_property: bool = False
    #: dotted class qname of the return annotation, when it names a
    #: repro class (fills the type environment of callers)
    returns: Optional[str] = None
    #: resolved targets called from this body: (callee qname, line)
    calls: List[Tuple[str, int, str]] = field(default_factory=list)
    #: unresolved/external dotted calls: ("time.time", line)
    external_calls: List[Tuple[str, int]] = field(default_factory=list)
    #: the subset of ``external_calls`` written with no arguments at all
    #: (``random.Random()``: a seedable constructor left unseeded)
    argless_calls: Set[Tuple[str, int]] = field(default_factory=set)
    #: ``os.environ[...]`` / ``os.environ.get`` style reads
    env_reads: List[Tuple[str, int]] = field(default_factory=list)
    #: lines of bare float literals in this body (default arguments
    #: count: they parametrize this function)
    float_lines: List[int] = field(default_factory=list)


@dataclass
class ClassNode:
    """One class: methods, bases, attribute types."""

    qname: str
    module: str
    path: str
    line: int
    name: str
    #: base-class references, resolved to qnames where possible
    bases: List[str] = field(default_factory=list)
    #: resolved decorator names (``repro.markers.checkpointable`` ...)
    decorators: List[str] = field(default_factory=list)
    methods: Dict[str, str] = field(default_factory=dict)
    properties: Set[str] = field(default_factory=set)
    #: ``self.X = SomeClass(...)`` -> class qname (constructor typing)
    attr_types: Dict[str, str] = field(default_factory=dict)
    #: class-level tuples/lists of string constants (``_WIRE_STATE``)
    str_constants: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    #: every attribute ever assigned on ``self``, with first-sight line
    self_attrs: Dict[str, int] = field(default_factory=dict)


class Program:
    """The parsed repo: files, definitions, and the resolved call graph."""

    def __init__(self) -> None:
        self.files: Dict[str, SourceFile] = {}
        self.modules: Dict[str, SourceFile] = {}
        self.functions: Dict[str, FunctionNode] = {}
        self.classes: Dict[str, ClassNode] = {}
        #: per-module local scope: name -> qname or dotted import target
        self.scopes: Dict[str, Dict[str, str]] = {}
        self.suppressions: Dict[str, Dict[int, Suppression]] = {}
        #: files that failed to parse: path -> (line, message)
        self.parse_errors: Dict[str, Tuple[int, str]] = {}
        self._mro_cache: Dict[str, Tuple[str, ...]] = {}

    # -- navigation ----------------------------------------------------
    def mro(self, class_qname: str) -> Tuple[str, ...]:
        """Approximate linearization: the class, then its bases depth-
        first left-to-right, deduplicated (C3 without the conflicts —
        exact for the single-inheritance repo this governs)."""
        cached = self._mro_cache.get(class_qname)
        if cached is not None:
            return cached
        seen: List[str] = []

        def visit(qname: str) -> None:
            if qname in seen or qname not in self.classes:
                return
            seen.append(qname)
            for base in self.classes[qname].bases:
                visit(base)

        visit(class_qname)
        out = tuple(seen)
        self._mro_cache[class_qname] = out
        return out

    def lookup_method(
        self, class_qname: str, name: str, *, skip_self: bool = False
    ) -> Optional[str]:
        for cls in self.mro(class_qname):
            if skip_self and cls == class_qname:
                continue
            found = self.classes[cls].methods.get(name)
            if found is not None:
                return found
        return None

    def lookup_attr_type(self, class_qname: str, attr: str) -> Optional[str]:
        for cls in self.mro(class_qname):
            found = self.classes[cls].attr_types.get(attr)
            if found is not None:
                return found
        return None

    def is_property(self, class_qname: str, attr: str) -> bool:
        return any(
            attr in self.classes[cls].properties
            for cls in self.mro(class_qname)
        )

    # -- name resolution -----------------------------------------------
    def resolve(
        self, module: str, dotted: str, _seen: Optional[Set[str]] = None
    ) -> Optional[str]:
        """Canonical qname for ``dotted`` as seen from ``module``.

        Returns a function/class qname when the chain lands on a known
        definition, an external dotted name (``time.time``) when the
        root is a non-repro import, or ``None`` for local variables and
        unresolvable chains.
        """
        seen = _seen if _seen is not None else set()
        key = f"{module}::{dotted}"
        if key in seen:
            return None
        seen.add(key)
        head, _, rest = dotted.partition(".")
        scope = self.scopes.get(module, {})
        target = scope.get(head)
        if target is None:
            return None
        full = f"{target}.{rest}" if rest else target
        return self._canonical(full, seen)

    def _canonical(
        self, dotted: str, seen: Set[str]
    ) -> Optional[str]:
        if dotted in self.functions or dotted in self.classes:
            return dotted
        if not dotted.startswith("repro"):
            return dotted  # external; matched against source sets
        # Peel trailing attributes until a known module prefix remains,
        # then chase re-exports (``from repro.x.y import Z`` surfaced
        # through ``repro.x.__init__``).
        parts = dotted.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            prefix = ".".join(parts[:cut])
            if prefix in self.modules or prefix in self.scopes:
                rest = parts[cut:]
                resolved = self.resolve(prefix, ".".join(rest), seen)
                if resolved is not None:
                    return resolved
                break
        return dotted if dotted in self.modules else None


# ----------------------------------------------------------------------
# Construction
# ----------------------------------------------------------------------
def build_program(
    paths: Sequence[str | Path],
    *,
    sources: Optional[Dict[str, str]] = None,
) -> Program:
    """Parse, index, and link.  ``sources`` maps extra in-memory files
    (``path -> text``), letting tests inject mutated modules."""
    program = Program()
    texts: List[Tuple[str, str]] = []
    for path in python_files(paths):
        texts.append((str(path), path.read_text()))
    for path, text in (sources or {}).items():
        texts.append((path, text))
    for path, text in texts:
        _load_file(program, path, text)
    for path in sorted(program.files):
        _index_file(program, program.files[path])
    for path in sorted(program.files):
        _link_file(program, program.files[path])
    return program


def _load_file(program: Program, path: str, text: str) -> None:
    module = module_of(path)
    try:
        tree = ast.parse(text)
    except SyntaxError as exc:
        program.parse_errors[path] = (
            exc.lineno or 1,
            f"file does not parse: {exc.msg}",
        )
        return
    source = SourceFile(path=path, text=text, module=module, tree=tree)
    program.files[path] = source
    if module is not None:
        program.modules[module] = source
    program.suppressions[path] = parse_suppressions(text)


# -- pass 1: indexing ---------------------------------------------------
def _index_file(program: Program, source: SourceFile) -> None:
    module = source.module or source.path
    scope: Dict[str, str] = {}
    program.scopes[module] = scope
    for node in source.tree.body:
        _index_import(scope, node, module)
    module_fn = FunctionNode(
        qname=f"{module}.<module>",
        module=module,
        path=source.path,
        line=1,
        name="<module>",
    )
    program.functions[module_fn.qname] = module_fn
    for node in source.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            _index_function(program, source, node, prefix=module, scope=scope)
            scope[node.name] = f"{module}.{node.name}"
        elif isinstance(node, ast.ClassDef):
            _index_class(program, source, node, prefix=module, scope=scope)
            scope[node.name] = f"{module}.{node.name}"
    # Function-local imports (lazy, cycle-breaking) bind file-wide too,
    # without shadowing a module-level name: a deferred ``import time``
    # must still resolve ``time.time()`` to the host clock.
    local: Dict[str, str] = {}
    for node in _nested_statements(source.tree.body):
        _index_import(local, node, module)
    for name, target in local.items():
        scope.setdefault(name, target)


def _nested_statements(stmts: Iterable[ast.AST]) -> Iterator[ast.AST]:
    """Every statement below ``stmts`` (not ``stmts`` themselves)."""
    for stmt in stmts:
        for name in ("body", "orelse", "finalbody", "handlers", "cases"):
            children = getattr(stmt, name, ())
            if isinstance(children, list):
                yield from children
                yield from _nested_statements(children)


def _index_import(scope: Dict[str, str], node: ast.stmt, module: str) -> None:
    if isinstance(node, ast.Import):
        for alias in node.names:
            if alias.asname:
                scope[alias.asname] = alias.name
            else:
                root = alias.name.split(".")[0]
                scope[root] = root
    elif isinstance(node, ast.ImportFrom):
        base = absolute_from(node, module)
        if base is None:
            return
        for alias in node.names:
            if alias.name == "*":
                continue
            scope[alias.asname or alias.name] = f"{base}.{alias.name}"


def _index_function(
    program: Program,
    source: SourceFile,
    node: ast.FunctionDef | ast.AsyncFunctionDef,
    *,
    prefix: str,
    scope: Dict[str, str],
    class_qname: Optional[str] = None,
    is_property: bool = False,
) -> FunctionNode:
    qname = f"{prefix}.{node.name}"
    fn = FunctionNode(
        qname=qname,
        module=source.module or source.path,
        path=source.path,
        line=node.lineno,
        name=node.name,
        class_qname=class_qname,
        is_property=is_property,
    )
    program.functions[qname] = fn
    for child in node.body:
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            _index_function(
                program, source, child,
                prefix=f"{qname}.<locals>", scope=scope,
            )
    return fn


def _decorator_name(expr: ast.expr) -> str:
    """Flat dotted text of a decorator expression (sans call parens)."""
    if isinstance(expr, ast.Call):
        expr = expr.func
    parts: List[str] = []
    while isinstance(expr, ast.Attribute):
        parts.append(expr.attr)
        expr = expr.value
    if isinstance(expr, ast.Name):
        parts.append(expr.id)
    return ".".join(reversed(parts))


def _index_class(
    program: Program,
    source: SourceFile,
    node: ast.ClassDef,
    *,
    prefix: str,
    scope: Dict[str, str],
) -> None:
    qname = f"{prefix}.{node.name}"
    cls = ClassNode(
        qname=qname,
        module=source.module or source.path,
        path=source.path,
        line=node.lineno,
        name=node.name,
        decorators=[_decorator_name(d) for d in node.decorator_list],
    )
    program.classes[qname] = cls
    for base in node.bases:
        dotted = _decorator_name(base)
        if dotted:
            cls.bases.append(dotted)  # resolved in the link pass
    for child in node.body:
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            decorators = [_decorator_name(d) for d in child.decorator_list]
            prop = any(
                d in ("property", "functools.cached_property", "cached_property")
                or d.endswith(".getter")
                for d in decorators
            )
            fn = _index_function(
                program, source, child,
                prefix=qname, scope=scope,
                class_qname=qname, is_property=prop,
            )
            cls.methods[child.name] = fn.qname
            if prop:
                cls.properties.add(child.name)
        elif isinstance(child, ast.Assign):
            for target in child.targets:
                if isinstance(target, ast.Name):
                    strings = _string_tuple(child.value)
                    if strings is not None:
                        cls.str_constants[target.id] = strings
        elif isinstance(child, ast.ClassDef):
            _index_class(program, source, child, prefix=qname, scope=scope)


def _string_tuple(expr: ast.expr) -> Optional[Tuple[str, ...]]:
    if not isinstance(expr, (ast.Tuple, ast.List)):
        return None
    out: List[str] = []
    for element in expr.elts:
        if isinstance(element, ast.Constant) and isinstance(element.value, str):
            out.append(element.value)
        else:
            return None
    return tuple(out)


# -- pass 2: linking ----------------------------------------------------
def _link_file(program: Program, source: SourceFile) -> None:
    module = source.module or source.path
    module_fn = program.functions[f"{module}.<module>"]
    _resolve_class_bases(program, module)
    _collect_attr_types(program, source, module)
    linker = _Linker(program, module)
    # Module-level body: everything outside function bodies, class
    # bodies included (decorators, dataclass field defaults, and
    # class-level assignments all execute at import time).
    linker.link(
        module_fn, _owned_nodes(source.tree.body, module_level=True),
        self_class=None,
    )
    # Decorator application is an import-time call, whether written with
    # parens (a Call node) or bare (just a Name/Attribute).
    for node in ast.walk(source.tree):
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            for decorator in node.decorator_list:
                linker.link_decorator(module_fn, decorator)
    for node in source.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            _link_function(program, linker, node, prefix=module, self_class=None)
        elif isinstance(node, ast.ClassDef):
            _link_class(program, linker, node, prefix=module)


def _link_class(
    program: Program, linker: "_Linker", node: ast.ClassDef, *, prefix: str
) -> None:
    cls_qname = f"{prefix}.{node.name}"
    for child in node.body:
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            _link_function(
                program, linker, child, prefix=cls_qname, self_class=cls_qname,
            )
        elif isinstance(child, ast.ClassDef):
            _link_class(program, linker, child, prefix=cls_qname)


def _resolve_class_bases(program: Program, module: str) -> None:
    for cls in program.classes.values():
        if cls.module != module:
            continue
        resolved: List[str] = []
        for base in cls.bases:
            target = program.resolve(module, base)
            resolved.append(target if target in program.classes else base)
        cls.bases = [b for b in resolved if b in program.classes]


def _collect_attr_types(
    program: Program, source: SourceFile, module: str
) -> None:
    """Constructor/annotation typing of ``self.X`` attributes, plus the
    class-wide ``self.X`` assignment census the coverage proof uses."""
    for node in ast.walk(source.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        qname = _enclosing_class_qname(program, module, node)
        cls = program.classes.get(qname)
        if cls is None:
            continue
        for method in node.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for stmt in ast.walk(method):
                attr_and_value: Optional[Tuple[ast.Attribute, Optional[ast.expr]]]
                attr_and_value = None
                if isinstance(stmt, ast.Assign) and len(stmt.targets) >= 1:
                    for target in stmt.targets:
                        if _is_self_attr(target):
                            attr_and_value = (target, stmt.value)  # type: ignore[arg-type]
                            break
                elif isinstance(stmt, ast.AnnAssign) and _is_self_attr(stmt.target):
                    attr_and_value = (stmt.target, stmt.value)  # type: ignore[arg-type]
                elif isinstance(stmt, ast.AugAssign) and _is_self_attr(stmt.target):
                    attr_and_value = (stmt.target, None)  # type: ignore[arg-type]
                if attr_and_value is None:
                    continue
                target_attr, value = attr_and_value
                name = target_attr.attr
                cls.self_attrs.setdefault(name, target_attr.lineno)
                typed = _constructor_class(program, module, value)
                if typed is not None:
                    cls.attr_types.setdefault(name, typed)
                if isinstance(stmt, ast.AnnAssign) and stmt.annotation is not None:
                    annotated = _annotation_class(program, module, stmt.annotation)
                    if annotated is not None:
                        cls.attr_types.setdefault(name, annotated)


def _enclosing_class_qname(
    program: Program, module: str, node: ast.ClassDef
) -> str:
    # Nested classes get dotted names in the index pass; reconstruct by
    # matching (module, name, line).
    for qname, cls in program.classes.items():
        if cls.module == module and cls.line == node.lineno and cls.name == node.name:
            return qname
    return f"{module}.{node.name}"


def _is_self_attr(node: ast.expr) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    )


def _constructor_class(
    program: Program, module: str, value: Optional[ast.expr]
) -> Optional[str]:
    if not isinstance(value, ast.Call):
        return None
    dotted = _dotted_of(value.func)
    if dotted is None:
        return None
    resolved = program.resolve(module, dotted)
    return resolved if resolved in program.classes else None


def _annotation_class(
    program: Program, module: str, annotation: ast.expr
) -> Optional[str]:
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        dotted = annotation.value.strip()
    else:
        dotted = _dotted_of(annotation)
        if dotted is None and isinstance(annotation, ast.Subscript):
            # Optional[X] / "Optional[X]" style: use the head argument.
            inner = annotation.slice
            dotted = _dotted_of(inner) if not isinstance(inner, ast.Tuple) else None
    if not dotted:
        return None
    resolved = program.resolve(module, dotted)
    return resolved if resolved in program.classes else None


def _dotted_of(expr: ast.expr) -> Optional[str]:
    parts: List[str] = []
    while isinstance(expr, ast.Attribute):
        parts.append(expr.attr)
        expr = expr.value
    if not isinstance(expr, ast.Name):
        return None
    parts.append(expr.id)
    return ".".join(reversed(parts))


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _owned_nodes(
    stmts: Sequence[ast.AST], *, module_level: bool
) -> List[ast.AST]:
    """Every node ``stmts`` execute on their owner's behalf.

    Skipped are exactly the defs the index pass made their own nodes —
    direct ``def`` children of the module, of an indexed class, or of
    the function — and every decorator (linked to ``<module>`` by
    :func:`_link_file`).  Anything else is kept, lambdas and class
    bodies included, down to a ``def`` nested under ``if``/``try``: no
    line escapes the graph.
    """
    out: List[ast.AST] = []

    def visit(children: Iterable[ast.AST], owns_defs: bool) -> None:
        for child in children:
            if not isinstance(child, _SCOPES):
                out.append(child)
                visit(ast.iter_child_nodes(child), False)
                continue
            if owns_defs and not isinstance(child, ast.ClassDef):
                continue  # its own FunctionNode
            out.append(child)
            visit(
                (
                    node
                    for name, value in ast.iter_fields(child)
                    if name != "decorator_list"
                    for node in (value if isinstance(value, list) else [value])
                    if isinstance(node, ast.AST)
                ),
                owns_defs and module_level and isinstance(child, ast.ClassDef),
            )

    visit(stmts, True)
    return out


def _default_nodes(args: ast.arguments) -> List[ast.AST]:
    """Default and keyword-only default expressions: they run when the
    ``def`` does, and are recorded against the function they
    parametrize, each at its own line."""
    out: List[ast.AST] = []
    for default in (*args.defaults, *args.kw_defaults):
        if default is not None:
            out.extend(ast.walk(default))
    return out


def _link_function(
    program: Program,
    linker: "_Linker",
    node: ast.FunctionDef | ast.AsyncFunctionDef,
    *,
    prefix: str,
    self_class: Optional[str],
) -> None:
    qname = f"{prefix}.{node.name}"
    fn = program.functions.get(qname)
    if fn is None:  # pragma: no cover - index and link walk the same tree
        return
    fn.returns = (
        _annotation_class(program, linker.module, node.returns)
        if node.returns is not None
        else None
    )
    linker.link(
        fn,
        _owned_nodes(node.body, module_level=False) + _default_nodes(node.args),
        self_class=self_class,
        args=node.args,
    )
    for child in node.body:
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            nested = f"{qname}.<locals>.{child.name}"
            if nested in program.functions:
                fn.calls.append((nested, child.lineno, "defines"))
                _link_function(
                    program, linker, child,
                    prefix=f"{qname}.<locals>", self_class=self_class,
                )


class _Linker:
    """Per-module call resolution with a light type environment."""

    def __init__(self, program: Program, module: str) -> None:
        self.program = program
        self.module = module

    # ------------------------------------------------------------------
    def link(
        self,
        fn: FunctionNode,
        body: List[ast.AST],
        *,
        self_class: Optional[str],
        args: Optional[ast.arguments] = None,
    ) -> None:
        env = self._type_env(body, self_class, args)
        for node in body:
            if isinstance(node, ast.Call):
                self._link_call(fn, node, self_class, env)
            elif isinstance(node, ast.Attribute) and not isinstance(
                getattr(node, "ctx", None), ast.Store
            ):
                self._link_property_read(fn, node, self_class, env)
            elif isinstance(node, ast.Subscript):
                dotted = _dotted_of(node.value)
                if dotted is not None:
                    resolved = self.program.resolve(self.module, dotted)
                    if resolved == "os.environ":
                        fn.env_reads.append(("os.environ[...]", node.lineno))
            elif isinstance(node, ast.Constant) and isinstance(node.value, float):
                fn.float_lines.append(node.lineno)

    # ------------------------------------------------------------------
    def _type_env(
        self,
        body: List[ast.AST],
        self_class: Optional[str],
        args: Optional[ast.arguments],
    ) -> Dict[str, str]:
        env: Dict[str, str] = {}
        if args is not None:
            every = list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
            for arg in every:
                if arg.annotation is None:
                    continue
                cls = _annotation_class(self.program, self.module, arg.annotation)
                if cls is not None:
                    env[arg.arg] = cls
        for node in body:
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name):
                    cls = _constructor_class(self.program, self.module, node.value)
                    if cls is not None:
                        env.setdefault(target.id, cls)
            elif isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name
            ):
                cls = _annotation_class(self.program, self.module, node.annotation)
                if cls is not None:
                    env.setdefault(node.target.id, cls)
        return env

    def _infer(
        self,
        expr: ast.expr,
        self_class: Optional[str],
        env: Dict[str, str],
    ) -> Optional[str]:
        """Class qname of ``expr``'s value, when statically knowable."""
        if isinstance(expr, ast.Name):
            if expr.id in ("self", "cls") and self_class is not None:
                return self_class
            return env.get(expr.id)
        if isinstance(expr, ast.Attribute):
            owner = self._infer(expr.value, self_class, env)
            if owner is not None:
                typed = self.program.lookup_attr_type(owner, expr.attr)
                if typed is not None:
                    return typed
                getter = self.program.lookup_method(owner, expr.attr)
                if getter is not None and self.program.is_property(
                    owner, expr.attr
                ):
                    return self.program.functions[getter].returns
            return None
        if isinstance(expr, ast.Call):
            target = self._resolve_call_target(expr, self_class, env)
            if target is None:
                return None
            if target in self.program.classes:
                return target
            fn = self.program.functions.get(target)
            return fn.returns if fn is not None else None
        return None

    # ------------------------------------------------------------------
    def link_decorator(self, fn: FunctionNode, expr: ast.expr) -> None:
        """One decorator application, parenthesised (arguments included)
        or bare."""
        if isinstance(expr, ast.Call):
            self.link(fn, list(ast.walk(expr)), self_class=None)
            return
        dotted = _dotted_of(expr)
        if dotted is None:
            return
        target = self.program.resolve(self.module, dotted)
        if target is None:
            return
        if target in self.program.functions:
            fn.calls.append((target, expr.lineno, "call"))
        elif target not in self.program.classes:
            fn.external_calls.append((target, expr.lineno))

    # ------------------------------------------------------------------
    def _resolve_call_target(
        self,
        node: ast.Call,
        self_class: Optional[str],
        env: Dict[str, str],
    ) -> Optional[str]:
        func = node.func
        if isinstance(func, ast.Name):
            return self.program.resolve(self.module, func.id)
        if not isinstance(func, ast.Attribute):
            return None
        # super().m()
        if (
            isinstance(func.value, ast.Call)
            and isinstance(func.value.func, ast.Name)
            and func.value.func.id == "super"
            and self_class is not None
        ):
            return self.program.lookup_method(
                self_class, func.attr, skip_self=True
            )
        dotted = _dotted_of(func)
        if dotted is not None:
            resolved = self.program.resolve(self.module, dotted)
            if resolved is not None:
                return resolved
        owner = self._infer(func.value, self_class, env)
        if owner is not None:
            return self.program.lookup_method(owner, func.attr)
        return None

    def _link_call(
        self,
        fn: FunctionNode,
        node: ast.Call,
        self_class: Optional[str],
        env: Dict[str, str],
    ) -> None:
        target = self._resolve_call_target(node, self_class, env)
        line = node.lineno
        if target is None:
            return
        program = self.program
        if target in program.classes:
            # Instantiation runs __init__ (and, for dataclasses that
            # validate themselves, __post_init__).
            for hook in ("__init__", "__post_init__"):
                method = program.lookup_method(target, hook)
                if method is not None:
                    fn.calls.append((method, line, "call"))
            return
        if target in program.functions:
            fn.calls.append((target, line, "call"))
            return
        fn.external_calls.append((target, line))
        if not node.args and not node.keywords:
            fn.argless_calls.add((target, line))

    def _link_property_read(
        self,
        fn: FunctionNode,
        node: ast.Attribute,
        self_class: Optional[str],
        env: Dict[str, str],
    ) -> None:
        owner = self._infer(node.value, self_class, env)
        if owner is None or not self.program.is_property(owner, node.attr):
            return
        getter = self.program.lookup_method(owner, node.attr)
        if getter is not None:
            fn.calls.append((getter, node.lineno, "property"))
