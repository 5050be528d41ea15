"""``repro-lint spec`` never raises on a JSON document.

Seeded mutation over the shipped examples: every value at every path of
every ``examples/specs/*.json`` is replaced, one at a time, by each junk
value below.  Whatever the result, the checker must answer with a list
of findings; a traceback would mean malformed input got past the
boundary it is meant to be stopped at.
"""

from __future__ import annotations

import copy
import json
import math
from pathlib import Path

import pytest

from repro.analysis.lint import Finding, check_spec_document

EXAMPLES = Path(__file__).resolve().parent.parent / "examples" / "specs"

JUNK = (
    None, True, False, 0, -1, 0.5, math.nan, math.inf, -math.inf,
    "", "x", "1/0", "inf", [], {}, [None],
)


def _paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from _paths(value, prefix + (index,))


def _substitute(document, path, value):
    if not path:
        return value
    mutated = copy.deepcopy(document)
    node = mutated
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return mutated


@pytest.mark.parametrize(
    "example", sorted(EXAMPLES.glob("*.json")), ids=lambda p: p.name
)
def test_junk_at_every_path_never_raises(example):
    document = json.loads(example.read_text())
    cases = 0
    for path in _paths(document):
        for junk in JUNK:
            mutated = _substitute(document, path, junk)
            findings = check_spec_document(mutated, str(example))
            assert isinstance(findings, list), (path, junk)
            assert all(isinstance(f, Finding) for f in findings), (path, junk)
            cases += 1
    assert cases >= 16 * 2
