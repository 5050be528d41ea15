"""Declarative import-direction (layering) enforcement.

This codifies — as data, not as a grep — the architecture rule that grew
up informally across PRs: *substrates never import subsystems*, and the
observability layer imports nothing it instruments (previously embedded
in ``tests/test_observability.py`` and a CI grep; both now delegate
here).

:data:`LAYERS` lists the top-level ``repro`` sub-packages bottom-up.  A
package may import strictly *lower* layers; imports within the same
layer are forbidden unless the layer is named in
:data:`SAME_LAYER_IMPORTS_OK` (the runtime triad ``system``/``faults``/
``workloads`` is mutually recursive by design: the simulator injects
faults, fault plans perturb workload scenarios, workloads schedule
simulator events).  :data:`PACKAGE_OVERRIDES` pins a package to an
explicit allow-list stricter than its layer — observability may touch
only ``errors`` so that *every* instrumented package can import it
without cycles.

A module in no declared package is itself a finding: growing the tree
means growing this map, deliberately.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterable, Iterator, Optional, Tuple

from repro.analysis.lint.engine import Finding, Rule, SourceFile, register

#: Bottom-up architecture map of ``src/repro``.  Root modules appear
#: under their own name; the root package itself is the ``repro`` entry.
LAYERS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("kernel", ("errors", "markers")),
    # Self-contained deterministic utilities (seeded backoff): above the
    # error hierarchy, below everything with domain semantics.
    ("primitives", ("backoff",)),
    ("intervals", ("intervals",)),
    ("substrate", ("resources", "observability")),
    ("model", ("computation",)),
    ("calculus", ("decision", "serialization")),
    ("semantics", ("logic",)),
    ("policies", ("baselines",)),
    ("strategies", ("encapsulation",)),
    # The admission front door wraps decisions and policies; the
    # runtime (simulator, fault plans, workloads) drives it — service
    # may depend on decision/observability, never the reverse, and
    # reaches nothing in the runtime (the mesh, not the door, prices
    # verdicts over the wire).
    ("services", ("service",)),
    ("runtime", ("system", "faults", "workloads")),
    ("surface", ("analysis", "cli", "__main__", "repro")),
)

#: Layers whose members may import each other (documented cycles).
SAME_LAYER_IMPORTS_OK: FrozenSet[str] = frozenset({"runtime", "surface"})

#: Packages allowed strictly less than their layer position implies.
PACKAGE_OVERRIDES: Dict[str, FrozenSet[str]] = {
    # The instrumentation layer must be importable from every package it
    # instruments; anything beyond the error hierarchy would be a cycle.
    "observability": frozenset({"errors"}),
}

#: Third-party imports pinned to specific modules.  ``numpy`` backs the
#: *inexact* (float64) profile path only: the exact Fraction path and
#: the ``_reference_*`` oracles must never acquire a numpy dependency,
#: so the import is legal solely inside the declared vector-kernel
#: module of ``repro.resources``.  Values are dotted-module prefixes
#: (matched at package boundaries, like rule scopes).
THIRD_PARTY_PINS: Dict[str, Tuple[str, ...]] = {
    "numpy": ("repro.resources._vectorized",),
}

_LAYER_INDEX: Dict[str, int] = {}
_LAYER_NAME: Dict[str, str] = {}
for _index, (_layer, _packages) in enumerate(LAYERS):
    for _package in _packages:
        _LAYER_INDEX[_package] = _index
        _LAYER_NAME[_package] = _layer


def allowed_imports(package: str) -> Optional[FrozenSet[str]]:
    """Packages ``package`` may import, ``None`` if undeclared.

    The set always includes the package itself (intra-package imports
    are the package's own business).
    """
    if package in PACKAGE_OVERRIDES:
        return PACKAGE_OVERRIDES[package] | {package}
    index = _LAYER_INDEX.get(package)
    if index is None:
        return None
    allowed = {package}
    for position, (layer, members) in enumerate(LAYERS):
        if position < index:
            allowed.update(members)
        elif position == index and layer in SAME_LAYER_IMPORTS_OK:
            allowed.update(members)
    return frozenset(allowed)


def import_violation(package: str, target: str) -> Optional[str]:
    """Human message if ``package`` importing ``target`` breaks layering."""
    allowed = allowed_imports(package)
    if allowed is None:
        return (
            f"package repro.{package} is not in the layering map "
            "(repro.analysis.lint.layering.LAYERS); declare its layer"
        )
    if target in allowed:
        return None
    if target not in _LAYER_INDEX:
        return (
            f"import target repro.{target} is not in the layering map "
            "(repro.analysis.lint.layering.LAYERS); declare its layer"
        )
    source_layer = _LAYER_NAME[package]
    target_layer = _LAYER_NAME[target]
    if package in PACKAGE_OVERRIDES:
        return (
            f"repro.{package} may import only "
            f"{{{', '.join(sorted(PACKAGE_OVERRIDES[package])) or 'nothing'}}} "
            f"but imports repro.{target}: the {source_layer} layer must not "
            "depend on code it instruments or serves"
        )
    return (
        f"repro.{package} (layer '{source_layer}') must not import "
        f"repro.{target} (layer '{target_layer}'): imports point strictly "
        "downward in the layering map"
    )


def third_party_pin_violation(
    module: Optional[str], target: str
) -> Optional[str]:
    """Human message if ``module`` importing third-party ``target``
    breaks a :data:`THIRD_PARTY_PINS` entry, else ``None``."""
    top = target.split(".")[0]
    allowed = THIRD_PARTY_PINS.get(top)
    if allowed is None:
        return None
    if module is not None and any(
        module == prefix or module.startswith(prefix + ".")
        for prefix in allowed
    ):
        return None
    return (
        f"import of {top} outside {{{', '.join(sorted(allowed))}}}: "
        f"{top} is pinned to the inexact vector kernels so the exact "
        "arithmetic path can never silently depend on it"
    )


def imported_repro_packages(
    tree: ast.AST, module: Optional[str]
) -> Iterator[Tuple[ast.stmt, str]]:
    """Yield ``(import statement, top-level repro package)``.

    Handles ``import repro.x``, ``from repro.x import y`` and relative
    ``from . import y`` forms (resolved against ``module``).
    """
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                package = _repro_package(alias.name)
                if package is not None:
                    yield node, package
        elif isinstance(node, ast.ImportFrom):
            dotted = absolute_from(node, module)
            if dotted is None:
                continue
            package = _repro_package(dotted)
            if package is not None:
                yield node, package


def _repro_package(dotted: str) -> Optional[str]:
    parts = dotted.split(".")
    if parts[0] != "repro":
        return None
    return parts[1] if len(parts) > 1 else "repro"


def absolute_from(node: ast.ImportFrom, module: Optional[str]) -> Optional[str]:
    """The dotted module a (possibly relative) ``from`` import names,
    resolved against the importing ``module``."""
    if node.level == 0:
        return node.module
    if module is None:
        return None
    base = module.split(".")
    # level 1 = current package: drop the module's own leaf name;
    # each extra level drops one more package.
    drop = node.level
    if len(base) < drop:
        return None
    prefix = base[: len(base) - drop]
    if node.module:
        prefix = prefix + node.module.split(".")
    return ".".join(prefix) if prefix else None


@register
class LayeringRule(Rule):
    """Imports must point strictly down the declared layering map."""

    name = "layering"
    description = (
        "import-direction enforcement over the declarative layering map: "
        "substrates never import subsystems, observability imports "
        "nothing it instruments"
    )
    scope = None  # every repro module

    def check(self, source: SourceFile) -> Iterable[Finding]:
        package = source.package
        if package is None:
            return
        for node, target in imported_repro_packages(
            source.tree, source.module
        ):
            message = import_violation(package, target)
            if message is not None:
                yield self.finding(source, node, message)
        for node, target in _imported_third_party(source.tree):
            message = third_party_pin_violation(source.module, target)
            if message is not None:
                yield self.finding(source, node, message)


def _imported_third_party(tree: ast.AST) -> Iterator[Tuple[ast.stmt, str]]:
    """Yield ``(import statement, dotted target)`` for absolute imports
    of non-``repro`` modules (relative imports are repro-internal)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] != "repro":
                    yield node, alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and node.module is not None:
                if node.module.split(".")[0] != "repro":
                    yield node, node.module
