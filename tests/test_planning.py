"""Unit tests for plan comparison and migration planning."""

from __future__ import annotations

import pytest

from repro.computation import Actor, ComplexRequirement, Demands, Evaluate
from repro.errors import InvalidComputationError
from repro.intervals import Interval
from repro.planning import (
    best_location,
    choose_plan,
    evaluate_plans,
    migration_plans,
)
from repro.resources import Node, ResourceSet, cpu, network, term


@pytest.fixture
def busy():
    return Node("busy")


@pytest.fixture
def quiet():
    return Node("quiet")


@pytest.fixture
def pool(busy, quiet):
    return ResourceSet.of(
        term(1, cpu(busy), 0, 30),
        term(6, cpu(quiet), 0, 30),
        term(2, network(busy, quiet), 0, 30),
    )


class TestEvaluateAndChoose:
    def test_evaluate_reports_all(self, pool, busy, quiet):
        window = Interval(0, 20)
        plans = {
            "cheap": ComplexRequirement([Demands({cpu(busy): 10})], window, "cheap"),
            "hungry": ComplexRequirement([Demands({cpu(busy): 50})], window, "hungry"),
        }
        outcomes = evaluate_plans(pool, plans)
        verdicts = {o.name: o.feasible for o in outcomes}
        assert verdicts == {"cheap": True, "hungry": False}

    def test_choose_earliest_finish(self, pool, busy, quiet):
        window = Interval(0, 20)
        plans = {
            "slow": ComplexRequirement([Demands({cpu(busy): 10})], window, "slow"),
            "fast": ComplexRequirement([Demands({cpu(quiet): 10})], window, "fast"),
        }
        best = choose_plan(pool, plans)
        assert best.name == "fast"  # 10/6 < 10/1

    def test_choose_none_when_all_infeasible(self, pool, busy):
        window = Interval(0, 5)
        plans = {
            "a": ComplexRequirement([Demands({cpu(busy): 50})], window, "a"),
        }
        assert choose_plan(pool, plans) is None

    def test_custom_objective(self, pool, busy, quiet):
        window = Interval(0, 30)
        plans = {
            "lean": ComplexRequirement([Demands({cpu(busy): 5})], window, "lean"),
            "fat": ComplexRequirement([Demands({cpu(quiet): 60})], window, "fat"),
        }
        frugal = choose_plan(
            pool, plans, objective=lambda o: o.requirement.total_demands.total
        )
        assert frugal.name == "lean"


class TestMigrationPlans:
    def test_variants_generated(self, busy, quiet):
        actor = Actor("w", busy, ())
        plans = migration_plans(
            actor, [Evaluate("x")], [quiet], Interval(0, 20)
        )
        assert set(plans) == {"stay", "via-quiet"}

    def test_home_candidate_skipped(self, busy):
        actor = Actor("w", busy, ())
        plans = migration_plans(actor, [Evaluate("x")], [busy], Interval(0, 20))
        assert set(plans) == {"stay"}

    def test_migrate_variant_prices_the_move(self, busy, quiet):
        actor = Actor("w", busy, ())
        plans = migration_plans(actor, [Evaluate("x")], [quiet], Interval(0, 20))
        move = plans["via-quiet"]
        # migrate (3 cpu@busy + 6 net + 3 cpu@quiet) then evaluate 8 cpu@quiet
        assert move.total_demands == Demands(
            {cpu(busy): 3, network(busy, quiet): 6, cpu(quiet): 3 + 8}
        )

    def test_round_trip(self, busy, quiet):
        actor = Actor("w", busy, ())
        plans = migration_plans(
            actor, [Evaluate("x")], [quiet], Interval(0, 40), round_trip=True
        )
        move = plans["via-quiet"]
        assert move.total_demands.get(network(quiet, busy)) == 6

    def test_empty_window_rejected(self, busy, quiet):
        actor = Actor("w", busy, ())
        with pytest.raises(InvalidComputationError):
            migration_plans(actor, [Evaluate("x")], [quiet], Interval(5, 5))


class TestBestLocation:
    def test_migration_wins_under_congestion(self, pool, busy, quiet):
        """The paper's scenario: staying is an infeasible pursuit; ROTA
        detects it and picks the migration plan in advance."""
        actor = Actor("w", busy, ())
        best = best_location(
            actor, [Evaluate("analysis", work=4)], [quiet], pool, Interval(0, 20)
        )
        assert best is not None
        assert best.name == "via-quiet"
        assert best.finish_time <= 20

    def test_staying_wins_when_home_is_fast(self, busy, quiet):
        rich_home = ResourceSet.of(
            term(10, cpu(busy), 0, 30),
            term(6, cpu(quiet), 0, 30),
            term(2, network(busy, quiet), 0, 30),
        )
        actor = Actor("w", busy, ())
        best = best_location(
            actor, [Evaluate("analysis", work=4)], [quiet], rich_home, Interval(0, 20)
        )
        assert best.name == "stay"

    def test_none_when_no_plan_feasible(self, busy, quiet):
        thin = ResourceSet.of(term(1, cpu(busy), 0, 4))
        actor = Actor("w", busy, ())
        best = best_location(
            actor, [Evaluate("analysis", work=4)], [quiet], thin, Interval(0, 4)
        )
        assert best is None
