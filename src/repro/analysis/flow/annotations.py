"""The ``# repro-flow:`` annotation family.

Annotations are the flow analyses' positive counterpart to the
``# repro-lint: disable=`` suppressions: instead of silencing a finding
they *discharge a proof obligation* — today the only directive is::

    self._cache = {}  # repro-flow: derivable=_cache -- rebuilt lazily on restore

which tells the checkpoint-coverage proof that the named attribute is
deliberately absent from the class's snapshot methods because a restore
can rederive (or safely reset) it.  The grammar mirrors the suppression
grammar deliberately:

* ``repro-flow: <directive>=<argument>`` names what is being sanctioned;
* everything after a literal ``--`` is the mandatory human reason.

And the same self-policing meta-rules apply (see
:data:`repro.analysis.flow.names.FLOW_META_RULES`): a reasonless
annotation discharges nothing and is itself a finding, as is one using
an unknown directive or one that sanctions nothing — so stale
annotations surface the moment the snapshot method starts covering the
attribute they excuse.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.lint.engine import Finding
from repro.analysis.lint.suppressions import comment_lines
from repro.analysis.flow.names import FLOW_META_RULES  # noqa: F401  (re-export)

#: Directives the analyzer understands, with the analyses that consume
#: them.  Growing the family means growing this map, deliberately.
KNOWN_DIRECTIVES = ("derivable",)

_PATTERN = re.compile(
    r"#\s*repro-flow:\s*(?P<directive>[A-Za-z0-9_-]+)\s*=\s*"
    r"(?P<argument>[A-Za-z0-9_.,-]+)"
    r"(?P<reason_clause>\s*--\s*(?P<reason>.*\S))?"
)


@dataclass
class FlowAnnotation:
    """One ``# repro-flow: <directive>=<argument>`` comment."""

    line: int
    directive: str
    argument: str
    reason: str | None
    #: set by the analyses that consumed the annotation
    used: bool = field(default=False)

    @property
    def has_reason(self) -> bool:
        return bool(self.reason and self.reason.strip())


def parse_annotations(
    text: str, comments: Optional[List[Tuple[int, str]]] = None
) -> Dict[int, FlowAnnotation]:
    """All ``# repro-flow:`` comments in ``text``, keyed by 1-based line.

    Only genuine ``#`` comments count (the pattern inside a docstring is
    inert); when the file does not tokenize, a lexical scan takes over so
    an annotation on a broken line is still reported, not swallowed
    (:func:`~repro.analysis.lint.suppressions.comment_lines`, which a
    caller may pass in precomputed as ``comments``).
    """
    out: Dict[int, FlowAnnotation] = {}
    for number, raw in comments if comments is not None else comment_lines(text):
        match = _PATTERN.search(raw)
        if match is None:
            continue
        out[number] = FlowAnnotation(
            line=number,
            directive=match.group("directive"),
            argument=match.group("argument"),
            reason=match.group("reason"),
        )
    return out


def annotation_meta_findings(
    annotations: Dict[int, FlowAnnotation], path: str
) -> Iterator[Finding]:
    """The self-policing pass, run after every analysis had its chance to
    mark annotations used."""
    for annotation in annotations.values():
        at = dict(path=path, line=annotation.line, column=1)
        if not annotation.has_reason:
            yield Finding(
                rule="flow-annotation-missing-reason",
                message=(
                    "flow annotation must state a reason: '# repro-flow: "
                    f"{annotation.directive}={annotation.argument} "
                    "-- <why this state is derivable>'"
                ),
                **at,
            )
            continue  # a reasonless annotation discharges nothing
        if annotation.directive not in KNOWN_DIRECTIVES:
            yield Finding(
                rule="flow-annotation-unknown-directive",
                message=(
                    f"unknown flow directive {annotation.directive!r} "
                    f"(known: {', '.join(KNOWN_DIRECTIVES)})"
                ),
                **at,
            )
            continue
        if not annotation.used:
            yield Finding(
                rule="flow-annotation-unused",
                message=(
                    f"annotation '{annotation.directive}="
                    f"{annotation.argument}' sanctions nothing here; "
                    "remove it or move it inside the checkpointable "
                    "class whose attribute it excuses"
                ),
                **at,
            )


def derivable_attributes(
    annotations: Dict[int, FlowAnnotation],
    first_line: int,
    last_line: int,
) -> Dict[str, List[FlowAnnotation]]:
    """``derivable`` annotations lying within a class's line span,
    mapped by the attribute name(s) they sanction (comma-separated
    arguments sanction several at once)."""
    out: Dict[str, List[FlowAnnotation]] = {}
    for annotation in annotations.values():
        if annotation.directive != "derivable" or not annotation.has_reason:
            continue
        if not first_line <= annotation.line <= last_line:
            continue
        for name in annotation.argument.split(","):
            name = name.strip()
            if name:
                out.setdefault(name, []).append(annotation)
    return out


def mark_used(annotations: List[FlowAnnotation]) -> None:
    for annotation in annotations:
        annotation.used = True


def unused_arguments(annotations: Dict[int, FlowAnnotation]) -> Set[str]:
    return {
        a.argument for a in annotations.values() if not a.used
    }
