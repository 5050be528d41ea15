"""Nothing in ``src/repro`` is defined without a reference.

A cheap name count, not a call graph: a function, method or class name
defined under ``src/repro`` must be used by name in the repository's code
(``.py``, ``.yml`` and ``.toml`` files; tests, benchmarks and CI count).
A name that nothing uses is dead code: delete it, or use it.  Dunder
methods (the interpreter calls them) and classes that a registering
decorator hands to a registry are reached with what encloses them.

What is not a use:

* prose: ``.md`` files, comments and docstrings (other string literals
  count, since ``getattr`` and registries look names up by string);
* a package ``__init__.py``'s imports and ``__all__``: re-exporting a
  name is not using it (other code there, such as a registry tuple,
  counts);
* a use inside a definition that is not itself reached: reach starts at
  module-level code and files outside ``src/repro`` and follows the
  bodies of what it reaches, so functions that only call each other are
  as dead as one that nothing calls, and a definition nested in a dead
  one is dead.

A second, stricter guard leaves ``tests/`` out: what only tests reach is
dead to the program.  The callers are ``src/repro``, ``benchmarks/``,
``perfbench/``, ``examples/`` and CI.  A definition reached from tests
alone stays only with a reason on :data:`KEEP`, or as a ``_reference_*``
oracle the differential tests hold the fast path to; their bodies count
as uses.  A third guard fails on a module that imports a name it never
uses, unless :data:`IMPORTED_FOR_EFFECT` says why.
"""

from __future__ import annotations

import ast
import os
import re
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "repro"

#: Suffixes of the files whose words count as references.
CODE_SUFFIXES = (".py", ".yml", ".toml")

#: Decorators that register what they decorate: the registry is the
#: reference (the lint rules are reached through ``register``).
REGISTERING = frozenset({"register"})

_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

#: Hidden folders whose files are code (CI's workflow steps call into
#: the package); every other hidden folder is tool state.
HIDDEN_CODE = frozenset({".github"})

#: Prefix of the oracles the differential tests compare fast paths with:
#: reached from tests by design.
ORACLE_PREFIX = "_reference_"

_PAPER = "transcribes the paper's model"
_DOOR_VIEW = "the door state test_door_differential compares with its reference"

#: Definitions reached only from tests that stay, each with its reason.
KEEP = {
    "final_location": _PAPER + " (an actor's location after migrations)",
    "is_sequential": _PAPER + " (Theorem 2's single-actor setting)",
    "phi": _PAPER + " (the cost model's Phi(a, action))",
    "total_shortfall": _PAPER + " (Theorem 1's shortfall, summed)",
    "is_communication": _PAPER + " (network located types)",
    "from_concrete": _PAPER + " (an Allen network of concrete intervals)",
    "union_pieces": _PAPER + " (interval union)",
    "shift": _PAPER + " (interval translation)",
    "complement_within": _PAPER + " (interval-set complement)",
    "point_span": _PAPER + " (the interval set of one interval)",
    "actor_names": _PAPER + " (the model's actor set A)",
    "state_at": _PAPER + " (a path's state at an instant)",
    "is_quiescent": _PAPER + " (a state with nothing left to run)",
    "is_pure_expiration": _PAPER + " (the expiration-only transition)",
    "peak_rate": "resources/profile.py is left to the float-half profile change",
    "check_latency": _DOOR_VIEW + " (the EWMA the enqueue screen prices with)",
    "deferred_labels": _DOOR_VIEW + " (brownout deferrals)",
    "observations": _DOOR_VIEW + " (EWMA samples; a slot of the door's pickle)",
    "RotaModel": _PAPER + " (Figure 1's model tuple)",
    "meets_deadline": _PAPER + " (Theorem 3 asked of the model)",
    "can_accommodate": _PAPER + " (Theorem 4 asked of the model)",
    "is_inverse_pair": _PAPER + " (Table I's inverse relations)",
    "compose": _PAPER + " (Allen's composition of two base relations)",
    "total_duration": _PAPER + " (the summed length of intervals)",
    "coalesce": _PAPER + " (merging touching intervals)",
    "contains_point": _PAPER + " (point membership in an interval)",
    "rates_at": "the one caller of _vectorized.rate_indices, which perfbench "
    "traces by name: both go with the next perfbench change",
    "cuts": "the wire oracle the differential tests re-derive a severed "
    "link's fate with",
    "chaos_partition_matrix": "the partition chaos harness CI's chaos "
    "partition matrix step runs through tests/test_netfaults.py",
    "chaos_overload_matrix": "the overload chaos harness CI's chaos overload "
    "matrix step runs through tests/test_overload_chaos.py",
    "save_events": "the writer half of the trace format `repro replay` reads",
    "solve_and_realise": "Allen-network consistency with a concrete witness, "
    "an extension of the interval algebra no caller uses; it leaves with its "
    "test module in a change of its own",
}


def _decorator_names(node) -> Iterator[str]:
    for decorator in node.decorator_list:
        while isinstance(decorator, ast.Call):
            decorator = decorator.func
        if isinstance(decorator, ast.Attribute):
            yield decorator.attr
        elif isinstance(decorator, ast.Name):
            yield decorator.id


_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


@dataclass(frozen=True)
class _Definition:
    name: str
    site: str
    #: Index of the enclosing definition, if any: a definition is reached
    #: only if the one around it is.
    parent: Optional[int]
    #: False for dunders (the interpreter calls them) and registered
    #: classes (the registry is the reference): reached with their parent.
    counted: bool


class _Program:
    """The definitions under ``source`` and the words ``root``'s code uses,
    keyed by the innermost definition under ``source`` they sit in
    (``None``: module-level code, or a file outside ``source``)."""

    def __init__(self, source: Path, root: Path, skip: Tuple[str, ...] = ()):
        self.definitions: List[_Definition] = []
        self.uses: Dict[Optional[int], Set[str]] = defaultdict(set)
        for path in _code_files(root, skip):
            text = path.read_text(errors="replace")
            if path.suffix != ".py":
                self.uses[None].update(_WORD.findall(text))
                continue
            site = str(path.relative_to(root))
            in_source = source in path.parents
            tree = ast.parse(text, filename=str(path))
            self._visit(tree, None, site, in_source, path.name == "__init__.py")

    def _visit(self, node, context, site, in_source, init):
        if init and _reexports(node):
            return
        if isinstance(node, _DEFINITIONS) and in_source:
            self.definitions.append(
                _Definition(
                    node.name,
                    f"{site}:{node.lineno}",
                    context,
                    not (node.name.startswith("__") and node.name.endswith("__"))
                    and not REGISTERING.intersection(_decorator_names(node)),
                )
            )
            context = len(self.definitions) - 1
        for field, value in ast.iter_fields(node):
            if field == "body" and _docstring(node):
                value = value[1:]
            elif field == "name" and isinstance(node, _DEFINITIONS):
                continue
            for item in value if isinstance(value, list) else [value]:
                if isinstance(item, ast.AST):
                    self._visit(item, context, site, in_source, init)
                elif isinstance(item, str):
                    self.uses[context].update(_WORD.findall(item))

    def reached(self, roots: Iterable[str] = ()) -> Set[int]:
        """Indices of the definitions reached from module-level code, from
        code outside ``source`` and from the definitions named in
        ``roots``, through the bodies of what is reached."""
        names = set(self.uses[None]).union(roots)
        alive: Set[int] = set()
        grew = True
        while grew:
            grew = False
            # a parent precedes its children, so one pass settles nesting
            for index, definition in enumerate(self.definitions):
                if index in alive or (
                    definition.parent is not None
                    and definition.parent not in alive
                ):
                    continue
                if definition.counted and definition.name not in names:
                    continue
                alive.add(index)
                new = self.uses[index] - names
                if new:
                    names |= new
                    grew = True
        return alive

    def unreached(self, roots: Iterable[str] = ()) -> List[str]:
        """``"<site> <name>"`` of every outermost definition not reached."""
        alive = self.reached(roots)
        return sorted(
            f"{definition.site} {definition.name}"
            for index, definition in enumerate(self.definitions)
            if index not in alive
            and (definition.parent is None or definition.parent in alive)
        )

    def defines(self, name: str) -> bool:
        return any(d.name == name for d in self.definitions)

    def reaches(self, name: str, roots: Iterable[str] = ()) -> bool:
        return any(
            self.definitions[index].name == name for index in self.reached(roots)
        )


def _docstring(node) -> bool:
    """Whether ``node`` has a docstring: prose, not a use."""
    return isinstance(
        node, (ast.Module,) + _DEFINITIONS
    ) and ast.get_docstring(node, clean=False) is not None


def _reexports(node) -> bool:
    """An ``__init__.py``'s imports and ``__all__``: re-exporting a name
    is not using it."""
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return True
    targets = (
        node.targets if isinstance(node, ast.Assign)
        else [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign))
        else []
    )
    return any(
        isinstance(target, ast.Name) and target.id == "__all__"
        for target in targets
    )


def _code_files(root: Path, skip: Tuple[str, ...]) -> Iterator[Path]:
    """``root``'s code files, leaving out the top-level folders named in
    ``skip``."""
    for folder, subfolders, files in os.walk(root):
        # .git, caches and tool state are not the repository's code
        subfolders[:] = sorted(
            name
            for name in subfolders
            if (not name.startswith(".") or name in HIDDEN_CODE)
            and not (folder == str(root) and name in skip)
        )
        for name in sorted(files):
            if name.endswith(CODE_SUFFIXES):
                yield Path(folder, name)


def unreferenced(source: Path, root: Path) -> List[str]:
    """``"<site> <name>"`` of every outermost definition under ``source``
    that ``root``'s code does not reach."""
    return _Program(source, root).unreached()


def reached_only_from_tests(
    source: Path, root: Path, keep: Dict[str, str]
) -> List[str]:
    """``"<site> <name>"`` of every outermost definition under ``source``
    that ``root``'s code outside ``tests/`` does not reach, unless
    ``keep`` gives it a reason or it is an oracle."""
    program = _Program(source, root, skip=("tests",))
    return program.unreached(set(keep) | _oracles(program))


def _oracles(program: _Program) -> Set[str]:
    return {
        d.name for d in program.definitions if d.name.startswith(ORACLE_PREFIX)
    }


#: Imports a module makes for their effect, not for a name it uses:
#: ``(module under src/repro, imported name)`` with the reason.
IMPORTED_FOR_EFFECT = {
    ("analysis/lint/engine.py", "layering"): "importing it registers its rules",
    ("analysis/lint/engine.py", "rules_code"): "importing it registers its rules",
}


def unused_imports(
    source: Path, allowed: Dict[Tuple[str, str], str]
) -> List[str]:
    """``"<site> <name>"`` of every name a module under ``source`` (not a
    package ``__init__.py``, whose imports are its exports) imports and
    its AST never uses, unless ``allowed`` gives the import a reason."""
    unused = []
    for path in sorted(source.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        module = path.relative_to(source).as_posix()
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or (
                isinstance(node, ast.ImportFrom) and node.module == "__future__"
            ):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used and (module, name) not in allowed:
                    unused.append(f"{module}:{node.lineno} {name}")
    return unused


def test_every_definition_is_referenced():
    dead = unreferenced(SOURCE, ROOT)
    assert not dead, (
        "defined in src/repro but referenced nowhere:\n  " + "\n  ".join(dead)
    )


def test_the_guard_reports_exactly_the_dead_definitions(tmp_path):
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "mod.py").write_text(
        "def register(cls):\n    return cls\n\n"
        "@register\nclass Registered:\n    def __repr__(self):\n"
        "        return helper()\n\n"
        "def helper():\n    return 'used from the same module'\n\n"
        "def tested():\n    return 1\n\n"
        "def dead():\n    return 2\n\n"
        "def documented():\n    return 3\n"
    )
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_mod.py").write_text(
        "from pkg.mod import tested\n\nassert tested() == 1\n"
    )
    (tmp_path / "NOTES.md").write_text("`documented` is prose, not a call\n")
    hidden = tmp_path / ".cache"
    hidden.mkdir()
    (hidden / "stale.py").write_text("dead()\n")
    assert [entry.split()[-1] for entry in unreferenced(package, tmp_path)] == [
        "dead", "documented",
    ]


def test_nothing_is_reached_only_from_tests():
    assert all(reason.strip() for reason in KEEP.values())
    test_only = reached_only_from_tests(SOURCE, ROOT, KEEP)
    assert not test_only, (
        "defined in src/repro but reached only from tests (delete it, or "
        "keep it with a reason in KEEP):\n  " + "\n  ".join(test_only)
    )


def test_every_kept_definition_is_still_reached_only_from_tests():
    """A KEEP entry that no longer exists, or that the program (with the
    other entries' bodies) has since started to reach, is stale."""
    program = _Program(SOURCE, ROOT, skip=("tests",))
    roots = set(KEEP) | _oracles(program)
    stale = [
        name
        for name in KEEP
        if not program.defines(name) or program.reaches(name, roots - {name})
    ]
    assert not stale, f"stale KEEP entries: {stale}"


def test_the_test_only_guard_fails_on_an_injected_definition(tmp_path):
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "mod.py").write_text(
        "def used():\n    return 0\n\n"
        "def scripted():\n    return 1\n\n"
        "def kept():\n    return 2\n\n"
        "def _reference_used():\n    return 0\n\n"
        "def injected():\n    return 3\n"
    )
    (tmp_path / "benchmarks").mkdir()
    (tmp_path / "benchmarks" / "bench.py").write_text(
        "from pkg.mod import used\n\nused()\n"
    )
    workflows = tmp_path / ".github" / "workflows"
    workflows.mkdir(parents=True)
    (workflows / "ci.yml").write_text("run: python -c 'scripted()'\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_mod.py").write_text(
        "from pkg.mod import _reference_used, injected, kept\n\n"
        "assert injected() + kept() + _reference_used() == 5\n"
    )
    keep = {"kept": "a reason"}
    assert [
        entry.split()[-1]
        for entry in reached_only_from_tests(package, tmp_path, keep)
    ] == ["injected"]
    assert [
        entry.split()[-1]
        for entry in reached_only_from_tests(package, tmp_path, {})
    ] == ["injected", "kept"]


def test_no_module_imports_a_name_it_does_not_use():
    assert all(reason.strip() for reason in IMPORTED_FOR_EFFECT.values())
    unused = unused_imports(SOURCE, IMPORTED_FOR_EFFECT)
    assert not unused, "imported but never used:\n  " + "\n  ".join(unused)


def _names(entries: List[str]) -> List[str]:
    return sorted(entry.split()[-1] for entry in entries)


def _fixture(tmp_path: Path, modules: Dict[str, str], tests: str) -> Path:
    """A repository under ``tmp_path`` with package ``pkg`` made of
    ``modules`` and one test file; returns the package folder."""
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    for name, text in modules.items():
        (package / name).write_text(text)
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_pkg.py").write_text(tests)
    return package


def test_a_reexport_is_not_a_use(tmp_path):
    package = _fixture(
        tmp_path,
        {
            "__init__.py": "from pkg.mod import exported, listed\n\n"
            "REGISTRY = (listed,)\n\n"
            "__all__ = ['exported', 'listed', 'REGISTRY']\n",
            "mod.py": "def exported():\n    return 1\n\n"
            "def listed():\n    return 2\n",
        },
        "from pkg import exported\n\nassert exported() == 1\n",
    )
    assert _names(reached_only_from_tests(package, tmp_path, {})) == [
        "exported"
    ]


def test_prose_is_not_a_use(tmp_path):
    package = _fixture(
        tmp_path,
        {
            "mod.py": '"""Call documented() before anything else."""\n\n'
            "def documented():\n"
            '    """documented() names itself in prose only."""\n'
            "    return 1\n\n"
            "def looked_up():\n    return 2\n\n"
            "# documented, again, in a comment\n"
            "HANDLERS = {'default': 'looked_up'}\n",
        },
        "from pkg.mod import documented\n\nassert documented() == 1\n",
    )
    assert _names(reached_only_from_tests(package, tmp_path, {})) == [
        "documented"
    ]


def test_a_cluster_reached_only_from_tests_is_test_only(tmp_path):
    package = _fixture(
        tmp_path,
        {
            "mod.py": "def ping(n):\n    return pong(n - 1) if n else 0\n\n"
            "def pong(n):\n    return ping(n)\n\n"
            "def outer():\n"
            "    def inner():\n        return helper()\n"
            "    return inner\n\n"
            "def helper():\n    return 1\n\n"
            "def kept():\n    return served()\n\n"
            "def served():\n    return 2\n\n"
            "def used():\n    return 0\n",
        },
        "from pkg.mod import kept, outer, ping\n\n"
        "assert ping(2) + outer()() + kept() == 3\n",
    )
    (tmp_path / "benchmarks").mkdir()
    (tmp_path / "benchmarks" / "bench.py").write_text(
        "from pkg.mod import used\n\nused()\n"
    )
    assert _names(
        reached_only_from_tests(package, tmp_path, {"kept": "a reason"})
    ) == ["helper", "outer", "ping", "pong"]


def test_an_unused_import_fails_unless_it_is_allowed(tmp_path):
    package = _fixture(
        tmp_path,
        {
            "__init__.py": "from pkg.mod import used\n",
            "rules.py": "RULES = []\n",
            "mod.py": "from __future__ import annotations\n\n"
            "import os\nimport sys\nfrom typing import List\n\n"
            "from pkg import rules\n\n\n"
            "def used() -> List[str]:\n    return sys.argv\n",
        },
        "",
    )
    allowed = {("mod.py", "rules"): "importing it registers its rules"}
    assert unused_imports(package, allowed) == ["mod.py:3 os"]
