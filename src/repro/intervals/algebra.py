"""Allen Interval Algebra: composition, constraint networks, consistency.

The paper leans on Interval Algebra [4] for reasoning about the time
intervals of resource terms.  Beyond the thirteen base relations
(:mod:`repro.intervals.relations`), the algebra provides *composition*
(given ``r1`` between i and j, and ``r2`` between j and k, which relations
may hold between i and k?) and the classic path-consistency propagation
over qualitative constraint networks.  These enable reasoning about the
relative order of resource availability windows and requirement windows
without concrete time stamps.

The 13x13 composition table is *derived by exhaustive enumeration* over a
small integer endpoint grid rather than transcribed by hand.  Because every
consistent triple of interval relations is witnessed by a configuration of
six endpoints, and any such configuration can be relabelled onto at most
six distinct values, a grid of six values is complete; we use eight for
margin.  The derivation runs once per process and is cached.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Dict, FrozenSet, Iterable, Mapping, MutableMapping, Tuple

from repro.errors import InvalidIntervalError
from repro.intervals.interval import Interval
from repro.intervals.relations import ALL_RELATIONS, Relation, converse, relate

#: A disjunctive relation between two intervals: the set of base relations
#: that may hold.  The full set means "no information".
RelationSet = FrozenSet[Relation]

#: The vacuous constraint.
FULL: RelationSet = frozenset(ALL_RELATIONS)

#: The inconsistent constraint.
NONE: RelationSet = frozenset()

_GRID_SIZE = 8


def _grid_intervals() -> list[Interval]:
    return [
        Interval(a, b)
        for a in range(_GRID_SIZE)
        for b in range(a + 1, _GRID_SIZE + 1)
    ]


@lru_cache(maxsize=1)
def composition_table() -> Dict[Tuple[Relation, Relation], RelationSet]:
    """The full 13x13 Allen composition table.

    ``composition_table()[(r1, r2)]`` is the set of relations that can hold
    between intervals i and k given ``relate(i, j) is r1`` and
    ``relate(j, k) is r2`` for some witness j.
    """
    table: Dict[Tuple[Relation, Relation], set[Relation]] = {
        (r1, r2): set() for r1 in ALL_RELATIONS for r2 in ALL_RELATIONS
    }
    grid = _grid_intervals()
    for i, j, k in itertools.product(grid, repeat=3):
        table[(relate(i, j), relate(j, k))].add(relate(i, k))
    return {key: frozenset(value) for key, value in table.items()}


def compose(r1: Relation, r2: Relation) -> RelationSet:
    """Compose two base relations (see :func:`composition_table`)."""
    return composition_table()[(r1, r2)]


def compose_sets(s1: Iterable[Relation], s2: Iterable[Relation]) -> RelationSet:
    """Compose two disjunctive relations: union of pairwise compositions."""
    table = composition_table()
    out: set[Relation] = set()
    for r1 in s1:
        for r2 in s2:
            out |= table[(r1, r2)]
    return frozenset(out)


def converse_set(relations: Iterable[Relation]) -> RelationSet:
    """Converse of a disjunctive relation."""
    return frozenset(converse(r) for r in relations)


class IntervalNetwork:
    """A qualitative constraint network over named intervals.

    Nodes are arbitrary hashable labels (e.g. resource-term identifiers or
    requirement-phase names); edges carry disjunctive Allen relations.
    Unspecified edges default to :data:`FULL` (no information).

    :meth:`propagate` runs Allen's path-consistency algorithm, tightening
    every edge through composition, and reports whether every edge stays
    non-empty.  (Path consistency is necessary but not sufficient for
    global consistency in the full algebra; for the pointisable fragment
    produced by concrete resource windows it is exact.)
    """

    def __init__(self) -> None:
        self._nodes: list[object] = []
        self._index: Dict[object, int] = {}
        self._edges: MutableMapping[Tuple[int, int], RelationSet] = {}
        #: Set when a constraint on (x, x) excludes EQUALS — immediately
        #: unsatisfiable regardless of the rest of the network.
        self._inconsistent = False

    # ------------------------------------------------------------------
    @property
    def nodes(self) -> tuple[object, ...]:
        return tuple(self._nodes)

    def add_node(self, label: object) -> None:
        """Register a node; idempotent."""
        if label not in self._index:
            self._index[label] = len(self._nodes)
            self._nodes.append(label)

    def constrain(self, a: object, b: object, relations: Iterable[Relation]) -> None:
        """Intersect the (a, b) edge with the given disjunction.

        The converse edge (b, a) is kept consistent automatically.
        """
        self.add_node(a)
        self.add_node(b)
        ia, ib = self._index[a], self._index[b]
        if ia == ib:
            if Relation.EQUALS not in frozenset(relations):
                self._inconsistent = True
            return
        current = self._edges.get((ia, ib), FULL)
        tightened = current & frozenset(relations)
        self._edges[(ia, ib)] = tightened
        self._edges[(ib, ia)] = converse_set(tightened)

    def relation(self, a: object, b: object) -> RelationSet:
        """Current disjunctive relation between ``a`` and ``b``."""
        ia, ib = self._index[a], self._index[b]
        if ia == ib:
            return NONE if self._inconsistent else frozenset({Relation.EQUALS})
        return self._edges.get((ia, ib), FULL)

    # ------------------------------------------------------------------
    def propagate(self) -> bool:
        """Run path-consistency propagation to a fixed point.

        Returns False as soon as some edge becomes empty (inconsistent
        network); True when the network is path consistent.
        """
        if self._inconsistent:
            return False
        if any(edge == NONE for edge in self._edges.values()):
            # A constraint was already tightened to the empty relation
            # (e.g. two contradictory constrain() calls on one edge).
            return False
        n = len(self._nodes)
        queue: list[Tuple[int, int]] = [
            (i, j) for i in range(n) for j in range(n) if i != j
        ]
        pending = set(queue)
        while queue:
            i, j = queue.pop()
            pending.discard((i, j))
            rij = self._get(i, j)
            for k in range(n):
                if k == i or k == j:
                    continue
                if self._tighten(i, k, compose_sets(rij, self._get(j, k))):
                    if self._get(i, k) == NONE:
                        return False
                    self._enqueue(queue, pending, i, k)
                if self._tighten(k, j, compose_sets(self._get(k, i), rij)):
                    if self._get(k, j) == NONE:
                        return False
                    self._enqueue(queue, pending, k, j)
        return True

    # ------------------------------------------------------------------
    def _get(self, i: int, j: int) -> RelationSet:
        if i == j:
            return frozenset({Relation.EQUALS})
        return self._edges.get((i, j), FULL)

    def _tighten(self, i: int, j: int, allowed: RelationSet) -> bool:
        current = self._get(i, j)
        tightened = current & allowed
        if tightened == current:
            return False
        self._edges[(i, j)] = tightened
        self._edges[(j, i)] = converse_set(tightened)
        return True

    @staticmethod
    def _enqueue(
        queue: list[Tuple[int, int]],
        pending: set[Tuple[int, int]],
        i: int,
        j: int,
    ) -> None:
        if (i, j) not in pending:
            pending.add((i, j))
            queue.append((i, j))

    # ------------------------------------------------------------------
    @classmethod
    def from_concrete(cls, intervals: Mapping[object, Interval]) -> "IntervalNetwork":
        """Build a fully specified network from concrete intervals.

        Each edge carries the singleton relation observed between the two
        concrete intervals; such networks are trivially consistent and are
        useful for validating propagation against ground truth.
        """
        network = cls()
        labels = list(intervals)
        for label in labels:
            if intervals[label].is_empty:
                raise InvalidIntervalError(
                    f"cannot build a network over empty interval {label!r}"
                )
            network.add_node(label)
        for a, b in itertools.combinations(labels, 2):
            network.constrain(a, b, {relate(intervals[a], intervals[b])})
        return network
