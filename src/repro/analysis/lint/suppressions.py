"""Per-line suppression comments for ``repro-lint``.

A finding may be silenced only *in place* and only *with a reason*::

    EPSILON = 1e-9  # repro-lint: disable=flow-exactness -- sanctioned tolerance boundary

The grammar is deliberately rigid:

* ``repro-lint: disable=<rule>[,<rule>...]`` names the rule(s) being
  silenced on that physical line;
* everything after a literal ``--`` is the mandatory human reason.

A suppression without a reason does not suppress anything — it *is* a
finding (``suppression-missing-reason``), as is one naming a rule the
registry does not know (``suppression-unknown-rule``) or one that
silences nothing (``suppression-unused``).  This is what keeps the
repo's promise of "zero unexplained suppressions" checkable by machine.
``repro-lint code`` and ``repro-lint flow`` share this one grammar and
reconcile through :func:`reconcile`.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    AbstractSet,
    Dict,
    Iterable,
    List,
    Set,
    Tuple,
)

if TYPE_CHECKING:
    from repro.analysis.lint.engine import Finding

#: Meta-rules emitted by the suppression machinery itself.  They are part
#: of the public rule namespace so reporters and the self-check fixtures
#: treat them like any other rule.
META_RULES: Dict[str, str] = {
    "parse-error": "the file does not parse as Python",
    "suppression-missing-reason": (
        "a suppression comment lacks the mandatory '-- reason' clause"
    ),
    "suppression-unknown-rule": (
        "a suppression comment names a rule the registry does not know"
    ),
    "suppression-unused": (
        "a suppression comment silences nothing on its line"
    ),
}

_PATTERN = re.compile(
    r"#\s*repro-lint:\s*disable=(?P<rules>[A-Za-z0-9_-]+(?:\s*,\s*[A-Za-z0-9_-]+)*)"
    r"(?P<reason_clause>\s*--\s*(?P<reason>.*\S))?"
)


@dataclass
class Suppression:
    """One ``# repro-lint: disable=...`` comment on one physical line."""

    line: int
    rules: Tuple[str, ...]
    reason: str | None
    #: Rule names this suppression actually silenced (filled by :func:`reconcile`).
    used: Set[str] = field(default_factory=set)

    @property
    def has_reason(self) -> bool:
        return bool(self.reason and self.reason.strip())


def _comment_lines(text: str) -> List[Tuple[int, str]]:
    """``(line, comment)`` for every genuine ``#`` comment in ``text``.

    The pattern appearing inside a string or docstring (as in this
    module's own documentation) is no comment.  When the file does not
    even tokenize, every physical line stands in, so a directive on a
    broken line is still reported rather than silently vanishing.
    """
    try:
        return [
            (token.start[0], token.string)
            for token in tokenize.generate_tokens(io.StringIO(text).readline)
            if token.type == tokenize.COMMENT
        ]
    except (tokenize.TokenError, SyntaxError, ValueError):
        return list(enumerate(text.splitlines(), start=1))


def parse_suppressions(text: str) -> Dict[int, Suppression]:
    """All suppression comments in ``text``, keyed by 1-based line number."""
    out: Dict[int, Suppression] = {}
    for number, raw in _comment_lines(text):
        match = _PATTERN.search(raw)
        if match is None:
            continue
        rules = tuple(
            part.strip() for part in match.group("rules").split(",") if part.strip()
        )
        out[number] = Suppression(
            line=number, rules=rules, reason=match.group("reason")
        )
    return out


def reconcile(
    raw: Iterable[Finding],
    suppressions: Dict[str, Dict[int, Suppression]],
    ran: AbstractSet[str],
    known: AbstractSet[str],
) -> List[Finding]:
    """Silence ``raw`` findings against ``suppressions`` (path -> line ->
    suppression), then police the suppressions themselves.

    ``ran`` names the rules this run could produce: a suppression is
    unused only when none of its names in ``ran`` silenced anything, so
    one comment may serve ``repro-lint code`` and ``repro-lint flow``
    alike while a stale name on it still surfaces under its own tool.
    ``known`` is the whole rule namespace both tools share.
    """
    # Late import: the engine imports this module for its parser.
    from repro.analysis.lint.engine import Finding

    kept: List[Finding] = []
    for finding in raw:
        suppression = suppressions.get(finding.path, {}).get(finding.line)
        if (
            suppression is not None
            and suppression.has_reason
            and finding.rule in suppression.rules
        ):
            suppression.used.add(finding.rule)
            continue
        kept.append(finding)
    for path in sorted(suppressions):
        for suppression in suppressions[path].values():
            at = dict(path=path, line=suppression.line, column=1)
            names = ",".join(suppression.rules)
            if not suppression.has_reason:
                kept.append(Finding(
                    rule="suppression-missing-reason",
                    message=(
                        "suppression must state a reason: "
                        f"'# repro-lint: disable={names} "
                        "-- <why this line is sanctioned>'"
                    ),
                    **at,
                ))
                continue  # a reasonless suppression silences nothing
            for name in suppression.rules:
                if name not in known:
                    kept.append(Finding(
                        rule="suppression-unknown-rule",
                        message=f"suppression names unknown rule {name!r}",
                        **at,
                    ))
            stale = [name for name in suppression.rules if name in ran]
            if stale and not suppression.used & set(stale):
                kept.append(Finding(
                    rule="suppression-unused",
                    message=(
                        f"suppression ({', '.join(stale)}) silences nothing "
                        "on this line; remove it or move it to the "
                        "offending line"
                    ),
                    **at,
                ))
    kept.sort()
    return kept
