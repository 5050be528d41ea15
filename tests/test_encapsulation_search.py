"""Unit tests for value-bounded search and the enclave admission policy."""

from __future__ import annotations

import pytest

from repro.computation import ComplexRequirement, Demands
from repro.encapsulation import (
    Enclave,
    SearchBudgetError,
    default_probe_cost,
    search_for_admission,
    value_threshold,
)
from repro.intervals import Interval
from repro.resources import ResourceSet, cpu, term


def creq(phases, s, d, label):
    return ComplexRequirement(phases, Interval(s, d), label=label)


@pytest.fixture
def hierarchy(cpu1, cpu2):
    """root(2 types) -> a(cpu1-heavy), b(cpu2-heavy)."""
    root = Enclave.root(
        ResourceSet.of(term(8, cpu1, 0, 100), term(8, cpu2, 0, 100))
    )
    root.spawn("a", ResourceSet.of(term(6, cpu1, 0, 100)))
    root.spawn("b", ResourceSet.of(term(6, cpu2, 0, 100)))
    return root


class TestSearchForAdmission:
    def test_finds_matching_enclave(self, hierarchy, cpu2):
        job = creq([Demands({cpu2: 100})], 0, 100, "j")
        outcome = search_for_admission(hierarchy, job, value=100)
        assert outcome.admitted
        # root owns both types (overlap 1) but is bigger; 'b' owns cpu2
        # only -> equal overlap, smaller size -> probed first.
        assert outcome.enclave.name == "b"
        assert outcome.spent > 0

    def test_gives_up_when_unprofitable(self, hierarchy, cpu2):
        job = creq([Demands({cpu2: 100})], 0, 100, "j")
        broke = search_for_admission(hierarchy, job, value=1)
        assert not broke.admitted
        assert broke.gave_up
        assert broke.probes == 0  # could not even afford the first probe

    def test_budget_limits_probes(self, hierarchy, cpu1, cpu2):
        """Enough value for the first probe only; if that enclave cannot
        admit, the search stops rather than overspending."""
        impossible = creq([Demands({cpu2: 10_000})], 0, 100, "big")
        first_cost = default_probe_cost(hierarchy.child("b"))
        outcome = search_for_admission(hierarchy, impossible, value=first_cost)
        assert not outcome.admitted
        assert outcome.gave_up
        assert outcome.probes == 1

    def test_exhausts_hierarchy_without_giving_up(self, hierarchy, cpu2):
        impossible = creq([Demands({cpu2: 10_000})], 0, 100, "big")
        outcome = search_for_admission(hierarchy, impossible, value=1_000)
        assert not outcome.admitted
        assert not outcome.gave_up
        assert outcome.probes == 3  # whole tree probed

    def test_no_commit_mode(self, hierarchy, cpu2):
        job = creq([Demands({cpu2: 100})], 0, 100, "j")
        search_for_admission(hierarchy, job, value=100, commit=False)
        # nothing was committed anywhere
        for enclave in hierarchy.walk():
            assert enclave.controller.admitted_labels == ()

    def test_value_validated(self, hierarchy, cpu2):
        job = creq([Demands({cpu2: 1})], 0, 100, "j")
        with pytest.raises(SearchBudgetError):
            search_for_admission(hierarchy, job, value=-1)


class TestValueThreshold:
    def test_breakeven(self, hierarchy, cpu2):
        job = creq([Demands({cpu2: 100})], 0, 100, "j")
        threshold = value_threshold(hierarchy, job)
        assert threshold is not None
        # at the threshold the search succeeds; a hair under, it gives up
        assert search_for_admission(
            hierarchy, job, value=threshold, commit=False
        ).admitted
        assert not search_for_admission(
            hierarchy, job, value=threshold - 0.5, commit=False
        ).admitted

    def test_none_when_impossible(self, hierarchy, cpu2):
        impossible = creq([Demands({cpu2: 10_000})], 0, 100, "big")
        assert value_threshold(hierarchy, impossible) is None
