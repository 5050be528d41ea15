"""Unit tests for concurrent (multi-actor) accommodation."""

from __future__ import annotations

import random

import pytest

from repro.computation import ComplexRequirement, ConcurrentRequirement, Demands
from repro.decision import (
    concurrent_feasible,
    find_concurrent_schedule,
    is_concurrent_feasible,
)
from repro.intervals import Interval
from repro.resources import ResourceSet, cpu, term
from repro.workloads import oracle_instance


def creq(phases, s, d, label):
    return ComplexRequirement(phases, Interval(s, d), label=label)


def conc(*parts):
    window = Interval(min(p.start for p in parts), max(p.deadline for p in parts))
    return ConcurrentRequirement(parts, window)


class TestOneAtATime:
    def test_independent_actors_share_capacity(self, cpu1):
        pool = ResourceSet.of(term(4, cpu1, 0, 10))
        req = conc(
            creq([Demands({cpu1: 20})], 0, 10, "a"),
            creq([Demands({cpu1: 20})], 0, 10, "b"),
        )
        schedule = find_concurrent_schedule(pool, req)
        assert schedule is not None
        assert len(schedule) == 2
        # claimed consumptions must be disjoint (subtractable in sequence)
        assert pool.dominates(schedule.consumption())

    def test_over_capacity_rejected(self, cpu1):
        pool = ResourceSet.of(term(4, cpu1, 0, 10))
        req = conc(
            creq([Demands({cpu1: 21})], 0, 10, "a"),
            creq([Demands({cpu1: 20})], 0, 10, "b"),
        )
        assert find_concurrent_schedule(pool, req) is None

    def test_different_types_do_not_contend(self, cpu1, cpu2):
        pool = ResourceSet.of(term(2, cpu1, 0, 10), term(2, cpu2, 0, 10))
        req = conc(
            creq([Demands({cpu1: 20})], 0, 10, "a"),
            creq([Demands({cpu2: 20})], 0, 10, "b"),
        )
        assert is_concurrent_feasible(pool, req)

    def test_deadline_laxity_ordering_helps(self, cpu1):
        """The tight-deadline component must be admitted first: greedy
        early claiming by the loose one would not block it, but the
        heuristic order makes this deterministic."""
        pool = ResourceSet.of(term(2, cpu1, 0, 10))
        tight = creq([Demands({cpu1: 4})], 0, 2, "tight")
        loose = creq([Demands({cpu1: 16})], 0, 10, "loose")
        schedule = find_concurrent_schedule(pool, conc(loose, tight))
        assert schedule is not None

    def test_exhaustive_tries_permutations(self, cpu1, cpu2):
        pool = ResourceSet.of(term(2, cpu1, 0, 4), term(2, cpu2, 0, 4))
        parts = [
            creq([Demands({cpu1: 4}), Demands({cpu2: 4})], 0, 4, f"x{i}")
            for i in range(2)
        ]
        req = conc(*parts)
        exhaustive = find_concurrent_schedule(pool, req, exhaustive=True)
        # one-at-a-time with full-rate claiming cannot interleave these;
        # permutations do not help either (completeness gap), but the call
        # must terminate and agree with its own predicate
        assert (exhaustive is not None) == is_concurrent_feasible(
            pool, req, exhaustive=True
        )

    def test_exhaustive_component_cap(self, cpu1):
        parts = [creq([Demands({cpu1: 1})], 0, 10, f"c{i}") for i in range(8)]
        pool = ResourceSet.of(term(10, cpu1, 0, 10))
        with pytest.raises(ValueError):
            find_concurrent_schedule(pool, conc(*parts), exhaustive=True)


class TestSoundnessAgainstOracle:
    """One-at-a-time admission is sound: whatever it admits, the oracle
    confirms executable.  (Completeness is NOT claimed; the paper's own
    reduction is one-at-a-time.)"""

    @pytest.mark.parametrize("seed", range(25))
    def test_admitted_implies_oracle_feasible(self, seed, cpu1, cpu2):
        rng = random.Random(1000 + seed)
        instance = oracle_instance(rng, [cpu1, cpu2], max_actors=2, horizon=8)
        fast = is_concurrent_feasible(
            instance.available, instance.requirement, exhaustive=True
        )
        if fast:
            assert concurrent_feasible(instance.available, instance.requirement)


# ----------------------------------------------------------------------
# The admission orders skip work nobody reads; the witnesses must not move
# ----------------------------------------------------------------------

def _seed_try_order(available, components):
    """One-at-a-time admission that subtracts after *every* component."""
    from repro.decision.schedule import ConcurrentSchedule
    from repro.decision.sequential import find_schedule

    remaining, schedules = available, []
    for component in components:
        schedule = find_schedule(remaining, component)
        if schedule is None:
            return None
        schedules.append(schedule)
        remaining = remaining - schedule.consumption()
    return ConcurrentSchedule(tuple(schedules))


def _seed_heuristic(available, requirement):
    from repro.decision.concurrent import _laxity_key

    components = list(requirement.components)
    components.sort(key=lambda c: _laxity_key(available, c))
    return _seed_try_order(available, components)


def _seed_exhaustive(available, requirement):
    """Every admission order in lexicographic order, first witness wins."""
    import itertools

    for order in itertools.permutations(requirement.components):
        found = _seed_try_order(available, order)
        if found is not None:
            return found
    return None


class TestDeadWorkRemoval:
    @pytest.mark.parametrize("seed", range(40))
    def test_witnesses_identical_to_full_subtraction(self, seed, cpu1, cpu2):
        rng = random.Random(1000 + seed)
        instance = oracle_instance(rng, [cpu1, cpu2], max_actors=3, horizon=8)
        available, requirement = instance.available, instance.requirement
        assert find_concurrent_schedule(available, requirement) == (
            _seed_heuristic(available, requirement)
        )
        assert find_concurrent_schedule(
            available, requirement, exhaustive=True
        ) == _seed_exhaustive(available, requirement)

    def test_single_component_skips_laxity_and_last_subtraction(
        self, cpu1, monkeypatch
    ):
        from repro.decision import concurrent as module
        from repro.resources.resource_set import ResourceSet as RS

        calls = {"laxity": 0, "minus": 0}
        laxity, minus = module._laxity_key, RS.minus

        def counting_laxity(*args):
            calls["laxity"] += 1
            return laxity(*args)

        def counting_minus(self, other):
            calls["minus"] += 1
            return minus(self, other)

        monkeypatch.setattr(module, "_laxity_key", counting_laxity)
        monkeypatch.setattr(RS, "minus", counting_minus)
        pool = ResourceSet.of(term(2, cpu1, 0, 10))
        one = conc(creq([Demands({cpu1: 4})], 0, 10, "a"))
        for exhaustive in (False, True):
            assert find_concurrent_schedule(pool, one, exhaustive=exhaustive)
        assert calls == {"laxity": 0, "minus": 0}
        two = conc(
            creq([Demands({cpu1: 4})], 0, 10, "a"),
            creq([Demands({cpu1: 4})], 0, 10, "b"),
        )
        assert find_concurrent_schedule(pool, two)
        assert calls == {"laxity": 2, "minus": 1}
