"""Nothing in ``src/repro`` is defined without a reference.

A cheap word-count guard, not a call graph: a function, method or class
name defined under ``src/repro`` must occur as a word in the repository's
code (``.py``, ``.yml`` and ``.toml`` files; tests, benchmarks and CI
count) more often than it is defined.  A name that occurs only at its own
definitions is dead code: delete it, or use it.  Prose in ``.md`` files
does not count, and neither do dunder methods (the interpreter calls
them) or classes that a registering decorator hands to a registry.
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


def _code_words(root: Path) -> Counter:
    words: Counter = Counter()
    for folder, subfolders, files in os.walk(root):
        # .git, caches and tool state are not the repository's code
        subfolders[:] = [name for name in subfolders if not name.startswith(".")]
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
