"""Interval Algebra substrate (paper Section III, Table I).

Time intervals, Allen's thirteen relations, relation composition and
qualitative constraint networks, and canonical disjoint interval sets.
"""

from repro.intervals.interval import (
    EMPTY,
    Interval,
    Time,
    interval,
    span,
    total_duration,
)
from repro.intervals.intervalset import IntervalSet, coalesce
from repro.intervals.relations import (
    ALL_RELATIONS,
    BASE_RELATIONS,
    INTERPRETATION,
    Relation,
    converse,
    holds,
    is_inverse_pair,
    relate,
)
from repro.intervals.algebra import (
    FULL,
    NONE,
    IntervalNetwork,
    RelationSet,
    compose,
    compose_sets,
    composition_table,
    converse_set,
)
from repro.intervals.solver import (
    realise,
    solve,
    solve_and_realise,
)

__all__ = [
    "EMPTY",
    "Interval",
    "Time",
    "interval",
    "span",
    "total_duration",
    "IntervalSet",
    "coalesce",
    "ALL_RELATIONS",
    "BASE_RELATIONS",
    "INTERPRETATION",
    "Relation",
    "converse",
    "holds",
    "is_inverse_pair",
    "relate",
    "FULL",
    "NONE",
    "IntervalNetwork",
    "RelationSet",
    "compose",
    "compose_sets",
    "composition_table",
    "converse_set",
    "realise",
    "solve",
    "solve_and_realise",
]
