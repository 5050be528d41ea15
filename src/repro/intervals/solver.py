"""Complete consistency solving for interval-algebra networks.

Path consistency (:meth:`IntervalNetwork.propagate`) is sound but not
complete for the full Allen algebra: some path-consistent networks have
no solution.  This module adds the classic complete decision procedure —
backtracking search over basic-relation labellings with path-consistency
forward checking [Allen 1983; van Beek 1992] — plus a *model builder*
that converts a consistent labelling into concrete integer intervals.

ROTA uses networks over *concrete* windows (always consistent), but the
solver makes the substrate stand alone: qualitative requirement-ordering
constraints ("phase A's window must precede B's, B during C, ...") can be
checked for realisability and instantiated before any quantitative
reasoning is attempted.
"""

from __future__ import annotations

import copy
from typing import Dict, Mapping, Optional, Tuple

from repro.errors import InvalidIntervalError
from repro.intervals.algebra import IntervalNetwork, RelationSet
from repro.intervals.interval import Interval
from repro.intervals.relations import Relation, relate

#: Search budget: networks explored beyond this raise.
MAX_SEARCH_NODES = 200_000


def _clone(network: IntervalNetwork) -> IntervalNetwork:
    return copy.deepcopy(network)


def _smallest_open_edge(
    network: IntervalNetwork,
) -> Optional[Tuple[object, object, RelationSet]]:
    """The non-singleton edge with fewest remaining relations (fail-first)."""
    best: Optional[Tuple[object, object, RelationSet]] = None
    nodes = network.nodes
    for i, a in enumerate(nodes):
        for b in nodes[i + 1:]:
            edge = network.relation(a, b)
            if len(edge) <= 1:
                continue
            if best is None or len(edge) < len(best[2]):
                best = (a, b, edge)
    return best


def solve(network: IntervalNetwork) -> Optional[Dict[Tuple[object, object], Relation]]:
    """A consistent basic labelling of every edge, or None.

    The input network is not mutated.  Complexity is exponential in the
    worst case (the problem is NP-complete); the fail-first ordering and
    path-consistency pruning keep typical requirement-ordering networks
    tiny.
    """
    budget = [0]

    def backtrack(current: IntervalNetwork) -> Optional[IntervalNetwork]:
        budget[0] += 1
        if budget[0] > MAX_SEARCH_NODES:
            raise InvalidIntervalError(
                f"IA search exceeded {MAX_SEARCH_NODES} nodes"
            )
        if not current.propagate():
            return None
        choice = _smallest_open_edge(current)
        if choice is None:
            return current
        a, b, edge = choice
        for relation in sorted(edge, key=lambda r: r.value):
            candidate = _clone(current)
            candidate.constrain(a, b, {relation})
            solved = backtrack(candidate)
            if solved is not None:
                return solved
        return None

    solved = backtrack(_clone(network))
    if solved is None:
        return None
    labelling: Dict[Tuple[object, object], Relation] = {}
    nodes = solved.nodes
    for i, a in enumerate(nodes):
        for b in nodes[i + 1:]:
            edge = solved.relation(a, b)
            labelling[(a, b)] = next(iter(edge))
    return labelling


# ----------------------------------------------------------------------
# Model building
# ----------------------------------------------------------------------

_ENDPOINT_ORDER: Mapping[Relation, tuple[str, ...]] = {
    # For each basic relation of (a, b): constraints between the four
    # endpoints expressed as "x<y" / "x=y" atoms over as, ae, bs, be.
    Relation.BEFORE: ("as<ae", "ae<bs", "bs<be"),
    Relation.AFTER: ("bs<be", "be<as", "as<ae"),
    Relation.MEETS: ("as<ae", "ae=bs", "bs<be"),
    Relation.MET_BY: ("bs<be", "be=as", "as<ae"),
    Relation.OVERLAPS: ("as<bs", "bs<ae", "ae<be"),
    Relation.OVERLAPPED_BY: ("bs<as", "as<be", "be<ae"),
    Relation.STARTS: ("as=bs", "ae<be"),
    Relation.STARTED_BY: ("as=bs", "be<ae"),
    Relation.DURING: ("bs<as", "ae<be"),
    Relation.CONTAINS: ("as<bs", "be<ae"),
    Relation.FINISHES: ("bs<as", "ae=be"),
    Relation.FINISHED_BY: ("as<bs", "ae=be"),
    Relation.EQUALS: ("as=bs", "ae=be"),
}


def realise(
    labelling: Mapping[Tuple[object, object], Relation],
) -> Dict[object, Interval]:
    """Concrete integer intervals witnessing a basic labelling.

    Builds the endpoint order implied by the labelling (union-find for
    equalities, topological ranking for the strict order) and assigns
    integer coordinates.  Raises when the labelling is cyclic — which a
    labelling returned by :func:`solve` never is.
    """
    nodes = sorted(
        {a for a, _ in labelling} | {b for _, b in labelling}, key=str
    )
    if not nodes:
        return {}
    points = [(n, "s") for n in nodes] + [(n, "e") for n in nodes]

    parent: Dict[tuple, tuple] = {p: p for p in points}

    def find(p):
        while parent[p] != p:
            parent[p] = parent[parent[p]]
            p = parent[p]
        return p

    def union(p, q):
        parent[find(p)] = find(q)

    strict: list[tuple] = []  # (lesser, greater) pairs, resolved later

    def atoms_for(a, b, relation):
        mapping = {"as": (a, "s"), "ae": (a, "e"), "bs": (b, "s"), "be": (b, "e")}
        for atom in _ENDPOINT_ORDER[relation]:
            if "=" in atom:
                x, y = atom.split("=")
                union(mapping[x], mapping[y])
            else:
                x, y = atom.split("<")
                strict.append((mapping[x], mapping[y]))

    for node in nodes:
        strict.append(((node, "s"), (node, "e")))
    for (a, b), relation in labelling.items():
        atoms_for(a, b, relation)

    # Topological ranking over the union-find representatives.
    successors: Dict[tuple, set] = {}
    indegree: Dict[tuple, int] = {}
    representatives = {find(p) for p in points}
    for rep in representatives:
        successors.setdefault(rep, set())
        indegree.setdefault(rep, 0)
    for lesser, greater in strict:
        lo, hi = find(lesser), find(greater)
        if lo == hi:
            raise InvalidIntervalError(
                "labelling forces a point to precede itself"
            )
        if hi not in successors[lo]:
            successors[lo].add(hi)
            indegree[hi] += 1

    rank: Dict[tuple, int] = {}
    frontier = sorted(
        (rep for rep in representatives if indegree[rep] == 0), key=str
    )
    level = 0
    while frontier:
        next_frontier: list = []
        for rep in frontier:
            rank[rep] = level
            for successor in successors[rep]:
                indegree[successor] -= 1
                if indegree[successor] == 0:
                    next_frontier.append(successor)
        frontier = sorted(set(next_frontier), key=str)
        level += 1
    if len(rank) != len(representatives):
        raise InvalidIntervalError("cyclic endpoint order in labelling")

    return {
        node: Interval(rank[find((node, "s"))], rank[find((node, "e"))])
        for node in nodes
    }


def solve_and_realise(
    network: IntervalNetwork,
) -> Optional[Dict[object, Interval]]:
    """Concrete intervals satisfying the network, or None.

    The returned witness is verified against the network before being
    handed back (defence in depth for the solver itself).
    """
    labelling = solve(network)
    if labelling is None:
        return None
    witness = realise(labelling)
    for (a, b), relation in labelling.items():
        observed = relate(witness[a], witness[b])
        if observed is not relation:  # pragma: no cover - solver bug guard
            raise InvalidIntervalError(
                f"witness violates {a}-{b}: wanted {relation}, got {observed}"
            )
    return witness
