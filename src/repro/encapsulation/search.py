"""Value-bounded resource search (paper Section VI, final paragraph).

The paper's closing thought: "if computations can determine the value of
carrying out a computation, that can inform their decision about how much
resource to expend in ... searching for resources before giving up."

This module implements that economy over the enclave hierarchy:

* probing an enclave (one admission attempt) has a *cost*, growing with
  the enclave's size (more resource types = more reasoning);
* a computation carries a *value*; the search walks the hierarchy in a
  cheapest-first / most-promising-first order and **gives up** once the
  cumulative search spend would exceed the computation's value — an
  unprofitable pursuit is abandoned before the admission answer is even
  known, which is precisely the self-limiting behaviour the paper wants.

The result records where (and whether) the computation was placed and
what the search itself consumed, so callers can study the value/effort
frontier (``benchmarks/bench_search_economy.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from repro.computation.requirements import (
    ComplexRequirement,
    ConcurrentRequirement,
)
from repro.encapsulation.enclave import Enclave
from repro.errors import RotaError


class SearchBudgetError(RotaError, ValueError):
    """Invalid search-economy parameters."""


@dataclass(frozen=True)
class SearchOutcome:
    """Where the search ended and what it spent getting there."""

    admitted: bool
    enclave: Optional[Enclave]
    spent: float
    probes: int
    gave_up: bool  # True when the budget stopped the search early


def default_probe_cost(enclave: Enclave) -> float:
    """Reasoning cost model: one unit per resource type the enclave's
    controller must consider (matches the E9 scaling observation)."""
    return 1.0 + len(enclave.resources.located_types)


def _candidate_order(root: Enclave, requirement) -> Iterator[Enclave]:
    """Most-promising-first: enclaves owning more of the demanded types
    come first; ties broken by smaller (cheaper to probe) enclaves."""
    demanded = set()
    parts = (
        requirement.components
        if isinstance(requirement, ConcurrentRequirement)
        else (requirement,)
    )
    for part in parts:
        for phase in part.phases:
            demanded.update(phase.located_types())

    def promise(enclave: Enclave) -> tuple:
        owned = set(enclave.resources.located_types)
        overlap = len(owned & demanded)
        return (-overlap, len(owned), enclave.name)

    yield from sorted(root.walk(), key=promise)


def search_for_admission(
    root: Enclave,
    requirement: ComplexRequirement | ConcurrentRequirement,
    *,
    value: float,
    commit: bool = True,
) -> SearchOutcome:
    """Search the hierarchy for an enclave that can admit ``requirement``,
    spending at most ``value`` on the search itself.

    Probing order is most-promising-first.  Before each probe the search
    checks whether paying for it keeps the pursuit profitable; if not it
    gives up — "avoiding infeasible pursuits" generalised to *unprofitable*
    ones.  With ``commit=False`` the search only answers (can_admit), never
    admitting.
    """
    if value < 0:
        raise SearchBudgetError(f"value must be >= 0, got {value!r}")
    spent = 0.0
    probes = 0
    for enclave in _candidate_order(root, requirement):
        cost = default_probe_cost(enclave)
        if spent + cost > value:
            return SearchOutcome(False, None, spent, probes, gave_up=True)
        spent += cost
        probes += 1
        decision = (
            enclave.admit(requirement) if commit else enclave.can_admit(requirement)
        )
        if decision.admitted:
            return SearchOutcome(True, enclave, spent, probes, gave_up=False)
    return SearchOutcome(False, None, spent, probes, gave_up=False)


def value_threshold(
    root: Enclave,
    requirement: ComplexRequirement | ConcurrentRequirement,
) -> Optional[float]:
    """The minimum computation value at which the search succeeds —
    the break-even point of looking for resources.  None when no enclave
    can admit at any budget."""
    spent = 0.0
    for enclave in _candidate_order(root, requirement):
        spent += default_probe_cost(enclave)
        if enclave.can_admit(requirement).admitted:
            return spent
    return None
