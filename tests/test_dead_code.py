"""Nothing in ``src/repro`` is defined without a reference.

A cheap word-count guard, not a call graph: a function, method or class
name defined under ``src/repro`` must occur as a word in the repository's
code (``.py``, ``.yml`` and ``.toml`` files; tests, benchmarks and CI
count) more often than it is defined.  A name that occurs only at its own
definitions is dead code: delete it, or use it.  Prose in ``.md`` files
does not count, and neither do dunder methods (the interpreter calls
them) or classes that a registering decorator hands to a registry.

A second, stricter guard leaves ``tests/`` out of the count: what only
tests reach is dead to the program.  The callers are ``src/repro``,
``benchmarks/``, ``perfbench/``, ``examples/`` and CI.  A definition
reached from tests alone stays only with a reason on :data:`KEEP`, or as
a ``_reference_*`` oracle the differential tests hold the fast path to.
"""

from __future__ import annotations

import ast
import os
import re
from collections import Counter
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

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
}


def _decorator_names(node) -> Iterator[str]:
    for decorator in node.decorator_list:
        while isinstance(decorator, ast.Call):
            decorator = decorator.func
        if isinstance(decorator, ast.Attribute):
            yield decorator.attr
        elif isinstance(decorator, ast.Name):
            yield decorator.id


def _definitions(source: Path, root: Path) -> Tuple[Counter, Dict[str, str]]:
    """Definition count per name under ``source``, and its first site."""
    counts: Counter = Counter()
    sites: Dict[str, str] = {}
    for path in sorted(source.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if REGISTERING.intersection(_decorator_names(node)):
                continue
            counts[name] += 1
            sites.setdefault(
                name, f"{path.relative_to(root)}:{node.lineno}"
            )
    return counts, sites


def _code_words(root: Path, skip: Tuple[str, ...] = ()) -> Counter:
    """Word counts of ``root``'s code, leaving out the top-level folders
    named in ``skip``."""
    words: Counter = Counter()
    for folder, subfolders, files in os.walk(root):
        # .git, caches and tool state are not the repository's code
        subfolders[:] = [
            name
            for name in subfolders
            if (not name.startswith(".") or name in HIDDEN_CODE)
            and not (folder == str(root) and name in skip)
        ]
        for name in files:
            if name.endswith(CODE_SUFFIXES):
                text = Path(folder, name).read_text(errors="replace")
                words.update(_WORD.findall(text))
    return words


def unreferenced(source: Path, root: Path) -> List[str]:
    """``"<site> <name>"`` of every definition under ``source`` whose
    name occurs in ``root``'s code no more often than it is defined."""
    counts, sites = _definitions(source, root)
    words = _code_words(root)
    return sorted(
        f"{sites[name]} {name}"
        for name, defined in counts.items()
        if words[name] <= defined
    )


def reached_only_from_tests(
    source: Path, root: Path, keep: Dict[str, str]
) -> List[str]:
    """``"<site> <name>"`` of every definition under ``source`` whose
    name occurs in ``root``'s code outside ``tests/`` no more often than
    it is defined, unless ``keep`` gives it a reason or it is an
    oracle."""
    counts, sites = _definitions(source, root)
    words = _code_words(root, skip=("tests",))
    return sorted(
        f"{sites[name]} {name}"
        for name, defined in counts.items()
        if words[name] <= defined
        and name not in keep
        and not name.startswith(ORACLE_PREFIX)
    )


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
    """A KEEP entry whose name the program has since started to use, or
    that no longer exists, is stale."""
    counts, _ = _definitions(SOURCE, ROOT)
    words = _code_words(ROOT, skip=("tests",))
    stale = [
        name for name in KEEP if not counts[name] or words[name] > counts[name]
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
