"""Final sweep over under-exercised paths across the library."""

from __future__ import annotations

import pytest

from repro.baselines import RotaAdmission
from repro.computation import (
    ComplexRequirement,
    ConcurrentRequirement,
    Demands,
    SimpleRequirement,
)
from repro.encapsulation import Enclave
from repro.intervals import Interval
from repro.logic import (
    accommodate,
    greedy_allocations,
    greedy_path,
    initial_state,
    models,
    satisfy,
)
from repro.resources import RateProfile, ResourceSet, cpu, term
from repro.system import (
    AllocationPolicy,
    EdfPolicy,
    OpenSystemSimulator,
    Topology,
    arrival,
)


def creq(phases, s, d, label="g"):
    return ComplexRequirement(phases, Interval(s, d), label=label)


class FcfsPolicy(AllocationPolicy):
    """First come, first served: the canonical admission-order branch."""

    def allocate(self, state, dt):
        return greedy_allocations(state, dt)


class TestSchedulerPolicyDifferences:
    def test_fcfs_and_edf_produce_different_outcomes(self, cpu1):
        """Same workload, different allocation order: the tight-deadline
        job survives under EDF, starves under FCFS."""
        pool = ResourceSet.of(term(2, cpu1, 0, 10))
        outcomes = {}
        for name, policy in (("fcfs", FcfsPolicy()), ("edf", EdfPolicy())):
            from repro.baselines import OptimisticAdmission

            simulator = OpenSystemSimulator(
                OptimisticAdmission(),
                initial_resources=pool,
                allocation_policy=policy,
            )
            simulator.schedule(
                arrival(0, creq([Demands({cpu1: 20})], 0, 10, "loose")),
                arrival(0, creq([Demands({cpu1: 4})], 0, 2, "tight")),
            )
            report = simulator.run(10)
            outcomes[name] = report.record_of("tight").completed
        assert outcomes == {"fcfs": False, "edf": True}


class TestSemanticsExhaustiveFlag:
    def test_exhaustive_concurrent_satisfy(self, cpu1, cpu2):
        pool = ResourceSet.of(term(2, cpu1, 0, 8), term(2, cpu2, 0, 8))
        path = greedy_path(initial_state(pool, 0), 8, 1)
        window = Interval(0, 8)
        bundle = ConcurrentRequirement(
            (
                creq([Demands({cpu1: 8})], 0, 8, "a"),
                creq([Demands({cpu2: 8})], 0, 8, "b"),
            ),
            window,
        )
        assert models(path, 0, satisfy(bundle), exhaustive=True)

    def test_satisfy_concurrent_with_closed_component(self, cpu1):
        pool = ResourceSet.of(term(2, cpu1, 0, 8))
        path = greedy_path(initial_state(pool, 0), 8, 1)
        bundle = ConcurrentRequirement(
            (creq([Demands({cpu1: 2})], 0, 3, "early"),), Interval(0, 3)
        )
        assert not models(path, 4, satisfy(bundle))


class TestTopologyDetails:
    def test_zero_rate_nodes_mint_no_terms(self):
        topology = Topology.full_mesh(2, cpu_rate=0, bandwidth=3)
        pool = topology.resources(Interval(0, 10))
        assert all(lt.is_communication for lt in pool.located_types)

    def test_located_types_cover_links_and_nodes(self):
        topology = Topology.full_mesh(2)
        kinds = {lt.kind for lt, _ in topology.located_types()}
        assert kinds == {"cpu", "network"}


class TestEnclaveEdges:
    def test_admit_anywhere_none_when_nothing_fits(self, cpu1):
        root = Enclave.root(ResourceSet.of(term(1, cpu1, 0, 5)))
        root.spawn("kid", ResourceSet.of(term(1, cpu1, 0, 5)))
        monster = creq([Demands({cpu1: 1000})], 0, 5, "monster")
        assert root.admit_anywhere(monster) is None

    def test_auto_generated_name(self, cpu1):
        from repro.decision import AdmissionController

        enclave = Enclave("", AdmissionController())
        assert enclave.name.startswith("enclave-")


class TestModelExhaustiveNegative:
    def test_exhaustive_meets_deadline_negative(self, cpu1, l1):
        from repro.computation import Actor, Evaluate, sequential
        from repro.logic import RotaModel

        job = sequential(Actor("w", l1, (Evaluate("e"),)), 0, 3, name="job")
        model = RotaModel(ResourceSet.of(term(2, cpu("l1"), 0, 3)))
        # needs 8, capacity 6: no path in the whole tree
        assert model.meets_deadline(job, exhaustive=True) is None


class TestProfileRemnants:
    def test_cap_with_zero(self):
        profile = RateProfile.constant(5, Interval(0, 5))
        assert profile.cap(RateProfile.zero()).is_zero

    def test_min_rate_exact_cover(self):
        profile = RateProfile.constant(5, Interval(0, 5))
        assert profile.min_rate(Interval(0, 5)) == 5

    def test_latest_accumulation_open_start(self):
        profile = RateProfile([(0, 2)])  # open-ended supply
        assert profile.latest_accumulation(10, 6) == 7


class TestSimpleRequirementSemantics:
    def test_satisfy_simple_exactly_at_start_time(self, cpu1):
        pool = ResourceSet.of(term(2, cpu1, 0, 8))
        path = greedy_path(initial_state(pool, 0), 8, 1)
        requirement = SimpleRequirement(Demands({cpu1: 4}), Interval(3, 8))
        # t == s: the untouched branch
        assert models(path, 3, satisfy(requirement))


class TestCliVolunteer:
    def test_scenario_volunteer_runs(self, capsys):
        from repro.cli import main

        assert main(["scenario", "volunteer", "--seed", "4", "--policy", "rota"]) == 0
        assert "rota" in capsys.readouterr().out
