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
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

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
    #: Rule names this suppression actually silenced (filled by the engine).
    used: Set[str] = field(default_factory=set)

    @property
    def has_reason(self) -> bool:
        return bool(self.reason and self.reason.strip())


def comment_lines(text: str) -> List[Tuple[int, str]]:
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


def parse_suppressions(
    text: str, comments: Optional[List[Tuple[int, str]]] = None
) -> Dict[int, Suppression]:
    """All suppression comments in ``text``, keyed by 1-based line number.

    ``comments`` passes in :func:`comment_lines` already computed for
    ``text``, so a caller parsing several directive families tokenizes
    once.
    """
    out: Dict[int, Suppression] = {}
    for number, raw in comments if comments is not None else comment_lines(text):
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
