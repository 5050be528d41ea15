"""Unit tests for scoring and table rendering."""

from __future__ import annotations

import pytest

from repro.analysis import confusion, policy_table, render_table, score
from repro.baselines import OptimisticAdmission, RotaAdmission
from repro.computation import ComplexRequirement, Demands
from repro.intervals import Interval
from repro.resources import ResourceSet, term
from repro.system import OpenSystemSimulator, arrival


def creq(phases, s, d, label):
    return ComplexRequirement(phases, Interval(s, d), label=label)


@pytest.fixture
def reports(cpu1):
    """Same event stream under optimistic and rota policies."""
    out = {}
    for policy in (OptimisticAdmission(), RotaAdmission()):
        pool = ResourceSet.of(term(4, cpu1, 0, 20))
        sim = OpenSystemSimulator(policy, initial_resources=pool)
        sim.schedule(
            arrival(0, creq([Demands({cpu1: 40})], 0, 10, "a")),
            arrival(0, creq([Demands({cpu1: 40})], 0, 10, "b")),
            arrival(0, creq([Demands({cpu1: 20})], 10, 20, "c")),
        )
        out[policy.name] = sim.run(20)
    return out


class TestScore:
    def test_rota_score(self, reports):
        s = score(reports["rota"])
        assert s.policy == "rota"
        assert s.arrivals == 3
        assert s.admitted == 2
        assert s.missed == 0
        assert s.precision == 1.0

    def test_optimistic_score(self, reports):
        s = score(reports["optimistic"])
        assert s.admitted == 3
        assert s.missed >= 1
        assert s.miss_rate > 0

    def test_admission_rate(self, reports):
        assert score(reports["rota"]).admission_rate == pytest.approx(2 / 3)


class TestConfusion:
    def test_against_self_is_diagonal(self, reports):
        c = confusion(reports["rota"], reports["rota"])
        assert c.only_policy == c.only_reference == 0
        assert c.agreement == 1.0

    def test_optimistic_vs_rota(self, reports):
        c = confusion(reports["optimistic"], reports["rota"])
        assert c.both_admit == 2
        assert c.only_policy == 1
        assert c.total == 3


def completed_demand(report):
    """Consumed quantity per completed arrival, summed from the trace."""
    per_actor = report.trace.consumption_by_actor()
    return {
        record.label: sum(
            sum(amounts.values())
            for actor, amounts in per_actor.items()
            if actor.split("[")[0] == record.label
        )
        for record in report.records
        if record.completed
    }


class TestDemandAccounting:
    def test_completed_demand(self, reports, cpu1):
        demand = completed_demand(reports["rota"])
        assert demand == {"a": 40, "c": 20}

    def test_goodput_quantity(self, reports):
        assert sum(completed_demand(reports["rota"]).values()) == 60
        # optimistic wastes work on the missed job
        assert sum(completed_demand(reports["optimistic"]).values()) < 80

    def test_goodput_is_completed_demand_over_offered(self, reports):
        """Goodput sums the completed arrivals' demanded quantity: 40 and
        20 of 80 offered units read 0.75, not the 2/80 a count gives."""
        assert score(reports["rota"]).goodput == 0.75
        for report in reports.values():
            offered = sum(report.offered.values())
            assert score(report).goodput == pytest.approx(
                sum(completed_demand(report).values()) / offered
            )


class TestRendering:
    def test_render_table_aligns(self):
        out = render_table(
            ("name", "value"), [("x", 1.23456), ("longer", 2)], title="T"
        )
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "1.235" in out
        assert all(len(line) == len(lines[1]) for line in lines[1:3])

    def test_policy_table_contains_rows(self, reports):
        table = policy_table([score(r) for r in reports.values()])
        assert "rota" in table
        assert "optimistic" in table
        assert "precision" in table



class TestCsvExport:
    def test_sweep_series_accessors(self):
        from repro.analysis import run_sweep
        from repro.baselines import RotaAdmission
        from repro.workloads import cloud_scenario

        sweep = run_sweep(
            "rate",
            [0.1],
            lambda rate: cloud_scenario(seed=2, arrival_rate=rate, horizon=60),
            [RotaAdmission],
        )
        assert sweep.parameters() == [0.1]
        assert sweep.series("rota", "missed") == [0]
        assert "missed vs rate" in sweep.table("missed")
