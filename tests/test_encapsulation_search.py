"""Unit tests for value-bounded search and the enclave admission policy."""

from __future__ import annotations

import pytest

from repro.baselines import RotaAdmission
from repro.computation import ComplexRequirement, Demands
from repro.encapsulation import (
    Enclave,
    EnclaveAdmission,
    SearchBudgetError,
    default_probe_cost,
    search_for_admission,
    value_threshold,
)
from repro.intervals import Interval
from repro.resources import ResourceSet, cpu, term
from repro.system import OpenSystemSimulator, ReservationPolicy, arrival


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


class TestEnclavePolicyInSimulation:
    def test_zero_misses_and_placements(self, cpu1, cpu2, monkeypatch):
        # The root starts empty: the simulator's initial-resource
        # observation is what feeds it (resources join at the top).
        root = Enclave.root(ResourceSet.empty(), align=1)
        policy = EnclaveAdmission(root)
        simulator = OpenSystemSimulator(
            policy,
            initial_resources=ResourceSet.of(
                term(4, cpu1, 0, 40), term(4, cpu2, 0, 40)
            ),
            allocation_policy=ReservationPolicy(),
        )
        # Carve the teams out of what just joined; the root keeps nothing,
        # so placements must land in the matching team.
        root.spawn("teamA", ResourceSet.of(term(4, cpu1, 0, 40)))
        root.spawn("teamB", ResourceSet.of(term(4, cpu2, 0, 40)))
        simulator.schedule(
            arrival(0, creq([Demands({cpu1: 40})], 0, 40, "a-job")),
            arrival(0, creq([Demands({cpu2: 40})], 0, 40, "b-job")),
            arrival(1, creq([Demands({cpu1: 10_000})], 1, 40, "monster")),
        )
        admit = Enclave.admit
        placements = {}

        def spy(enclave, requirement, **kwargs):
            decision = admit(enclave, requirement, **kwargs)
            if decision.admitted:
                placements[requirement.components[0].label] = enclave.name
            return decision

        monkeypatch.setattr(Enclave, "admit", spy)
        report = simulator.run(40)
        assert report.missed == 0
        assert report.record_of("a-job").completed
        assert report.record_of("b-job").completed
        assert not report.record_of("monster").admitted
        assert placements == {"a-job": "teamA", "b-job": "teamB"}

    def test_comparable_to_flat_rota(self, cpu1):
        """On a single-enclave hierarchy the policy behaves like flat
        ROTA admission."""
        events = [
            arrival(0, creq([Demands({cpu1: 20})], 0, 10, "x")),
            arrival(0, creq([Demands({cpu1: 20})], 0, 10, "y")),
            arrival(0, creq([Demands({cpu1: 1})], 0, 10, "z")),
        ]
        outcomes = {}
        for name, policy in (
            ("flat", RotaAdmission()),
            ("enclave", EnclaveAdmission(
                Enclave.root(ResourceSet.empty(), align=1)
            )),
        ):
            simulator = OpenSystemSimulator(
                policy,
                initial_resources=ResourceSet.of(term(4, cpu1, 0, 10)),
                allocation_policy=ReservationPolicy(),
            )
            simulator.schedule(*events)
            report = simulator.run(10)
            outcomes[name] = sorted(
                (r.label, r.admitted) for r in report.records
            )
        assert outcomes["flat"] == outcomes["enclave"]
