"""Kill-anywhere crash matrix: every interrupted run resumes identically.

This is the durability subsystem's acceptance test.  One seeded faulty
scenario (chosen so the recovery pipeline is genuinely exercised — a
victim re-admitted after backoff and another abandoned) is killed at
every journal-record boundary, mid-write (leaving a torn tail), and
while writing a checkpoint; each resume must produce a
``SimulationReport`` field-for-field identical to the uninterrupted run.
Conservation (``offered = consumed + expired + lost``) is re-verified at
the resume instant inside :meth:`OpenSystemSimulator.resume`.

CI runs this file as its own job (see ``.github/workflows/ci.yml``).
Tier-1 kills :func:`matrix_scenario` and
:func:`multi_component_scenario` at every third record boundary; the
same ``crash-matrix`` job also sweeps both at stride 1 (every boundary),
the full proof of the interrupted-equals-uninterrupted contract.
"""

from __future__ import annotations

import random

import pytest

from repro.baselines import OptimisticAdmission, RotaAdmission
from repro.computation import ComplexRequirement, ConcurrentRequirement, Demands
from repro.decision import AdmissionController
from repro.errors import FaultInjectionError
from repro.faults import (
    FaultPlan,
    RecoveryPolicy,
    chaos_crash_matrix,
    faulty_scenario,
)
from repro.faults.chaos import kill_and_resume, scenario_run
from repro.intervals import Interval
from repro.resources import ResourceSet, cpu, term
from repro.system import OpenSystemSimulator, ReservationPolicy, arrival
from repro.workloads import volunteer_scenario
from repro.workloads.scenarios import Scenario


def violating_scenario():
    return faulty_scenario(
        volunteer_scenario(7, nodes=4, horizon=60, session_rate=0.5),
        FaultPlan(
            seed=17, crash_rate=0.04, revocation_rate=0.5,
            straggler_rate=0.04,
        ),
    )


def simulator_factory(scenario):
    def factory():
        return OpenSystemSimulator(
            RotaAdmission(),
            initial_resources=scenario.initial_resources,
            allocation_policy=ReservationPolicy(),
            recovery=RecoveryPolicy(max_attempts=6),
        )

    return factory


def matrix_scenario():
    """Compact, but it still breaks and recovers a promise: the scenario
    the crash matrix below samples and CI sweeps at stride 1."""
    return faulty_scenario(
        volunteer_scenario(5, nodes=3, horizon=40, session_rate=0.6),
        FaultPlan(
            seed=17, crash_rate=0.02, revocation_rate=0.25,
            straggler_rate=0.02,
        ),
    )


def multi_component_scenario(seed=7):
    """Two-part arrivals whose first part's window closes before the
    arrival's, under faults.  Admitted optimistically, some first parts
    leave ``rho`` short of completion while their record stays open, and
    faults evict records whose two-part residuals are re-admitted under
    the old label: the state the multi-component crash sweep kills."""
    rng = random.Random(seed)
    horizon = 60
    nodes = [cpu(f"n{index}") for index in range(3)]
    events = []
    for index in range(12):
        start = rng.randrange(0, horizon // 2)
        end = start + rng.randrange(10, 20)
        deadlines = (start + rng.randrange(3, end - start), end)
        parts = tuple(
            ComplexRequirement(
                [Demands({ltype: rng.randrange(2, 2 + deadline - start)})],
                Interval(start, deadline),
                label=f"p{part}",
            )
            for part, (ltype, deadline) in enumerate(
                zip(rng.sample(nodes, 2), deadlines)
            )
        )
        events.append(
            arrival(
                start,
                ConcurrentRequirement(parts, Interval(start, end)),
                f"m{index}",
            )
        )
    return faulty_scenario(
        Scenario(
            name="multi-component",
            initial_resources=ResourceSet.of(
                *(term(2, ltype, 0, horizon) for ltype in nodes)
            ),
            events=events,
            horizon=horizon,
        ),
        FaultPlan(
            seed=seed, crash_rate=0.02, revocation_rate=0.3,
            straggler_rate=0.02,
        ),
    )


def optimistic_factory(scenario):
    def factory():
        return OpenSystemSimulator(
            OptimisticAdmission(),
            initial_resources=scenario.initial_resources,
            recovery=RecoveryPolicy(max_attempts=3),
        )

    return factory


def test_scenario_exercises_recovery():
    """Guard: the matrix below is only meaningful if promises break and
    the backoff pipeline runs — both arms (recovered and abandoned)."""
    scenario = violating_scenario()
    simulator = simulator_factory(scenario)()
    simulator.schedule(*scenario.events)
    report = simulator.run(scenario.horizon)
    assert report.trace.violations
    assert report.recovered > 0
    assert report.abandoned > 0


def test_slack_is_exact_after_every_controller_mutation(monkeypatch):
    """Theorem 4 admits against ``available - committed``: every
    controller mutation of the faulty run — joins after revocations
    included — must leave the slack equal to that reference."""
    calls, drifted = [], []

    def checked(name):
        mutate = getattr(AdmissionController, name)

        def wrapper(controller, *args, **kwargs):
            result = mutate(controller, *args, **kwargs)
            calls.append(name)
            if not controller.verify_slack():
                drifted.append((name, controller.now))
            return result

        return wrapper

    for name in (
        "add_resources", "revoke_resources", "forfeit", "admit",
        "withdraw", "reserve", "release", "advance_to",
    ):
        monkeypatch.setattr(AdmissionController, name, checked(name))
    scenario = violating_scenario()
    simulator = simulator_factory(scenario)()
    simulator.schedule(*scenario.events)
    simulator.run(scenario.horizon)
    assert {
        "add_resources", "revoke_resources", "admit", "advance_to",
    } <= set(calls)
    assert not drifted, f"slack drifted after {drifted}"


def test_crash_matrix_every_point_resumes_identically(tmp_path):
    """Every sampled point resumes identically: every third record
    boundary, its mid-write tear, and two checkpoint-save kills.  The
    stride-1 sweep of the same scenario is a step of the CI crash-matrix
    job."""
    scenario = matrix_scenario()
    result = chaos_crash_matrix(
        scenario,
        simulator_factory(scenario),
        tmp_path,
        checkpoint_every=3,
        boundary_stride=3,
        mid_write=True,
        checkpoint_crashes=2,
    )
    assert result.journal_records > 0
    assert result.crashed_points, "budget never hit: matrix proved nothing"
    for point in result.crashed_points:
        assert point.identical, (
            f"{point.kind}@{point.index} resumed from "
            f"{point.resumed_from}: {point.detail}"
        )
    assert result.ok, result.summary()


def test_crash_matrix_backoff_and_abandonment_grid(tmp_path):
    """Second grid point, thinned stride: the scenario where both
    recovery arms run (re-admitted after backoff *and* abandoned), so
    crash points land mid-backoff.  Catches anything overfit to the
    primary scenario's event order."""
    scenario = violating_scenario()
    result = chaos_crash_matrix(
        scenario,
        simulator_factory(scenario),
        tmp_path,
        checkpoint_every=5,
        boundary_stride=5,
        mid_write=True,
        checkpoint_crashes=3,
    )
    assert result.crashed_points
    assert result.ok, result.summary()


def test_multi_component_scenario_leaves_parts_short_and_relabels():
    """Guard: the multi-component sweep below is only meaningful if a
    record stays open after a part left ``rho`` short of completion, and
    a two-part residual is re-admitted under the evicted record's label."""
    scenario = multi_component_scenario()
    requirements = {
        event.label: event.requirement
        for event in scenario.events
        if getattr(event, "requirement", None) is not None
    }
    report, _ = scenario_run(scenario, optimistic_factory(scenario))()
    consumed = report.trace.consumption_by_actor()
    left_short = relabelled = 0
    for record in report.records:
        first = requirements[record.label].components[0]
        if (
            sum(consumed.get(f"{record.label}[0]", {}).values())
            < first.phases[0].total
            and first.deadline < record.window.end
            and (
                record.violated_at is None
                or record.violated_at >= first.deadline
            )
        ):
            left_short += 1
        if record.violated_at is not None and any(
            actor.startswith(record.label + "[")
            for entry in report.trace.transitions
            if entry.t >= record.violated_at
            for actor, _, _ in entry.label.consumed
        ):
            relabelled += 1
    assert left_short and relabelled


def test_multi_component_crash_matrix_resumes_identically(tmp_path):
    """Every third record boundary of the multi-component run, its
    mid-write tear, and two checkpoint-save kills resume identically.
    The stride-1 sweep is a step of the CI crash-matrix job."""
    scenario = multi_component_scenario()
    result = chaos_crash_matrix(
        scenario,
        optimistic_factory(scenario),
        tmp_path,
        checkpoint_every=3,
        boundary_stride=3,
    )
    assert result.crashed_points, "budget never hit: matrix proved nothing"
    assert result.ok, result.summary()


def compact_scenario():
    return faulty_scenario(
        volunteer_scenario(5, nodes=3, horizon=20, session_rate=0.6),
        FaultPlan(seed=17, crash_rate=0.02, revocation_rate=0.25),
    )


def compact_run():
    scenario = compact_scenario()
    return scenario_run(scenario, simulator_factory(scenario))


class TestLoopCanFail:
    """Mutation self-checks: the loop reports what a broken resume or a
    drifting durable run does, instead of passing vacuously."""

    def test_tampered_resume_fails_every_crashed_point(
        self, tmp_path, monkeypatch
    ):
        """Mutant: every resume returns a report whose horizon is off."""
        resume_run = OpenSystemSimulator.resume_run

        def tampered(self):
            report = resume_run(self)
            report.horizon += 1
            return report

        monkeypatch.setattr(OpenSystemSimulator, "resume_run", tampered)
        result = kill_and_resume(
            compact_run(),
            tmp_path,
            checkpoint_every=3,
            boundary_stride=7,
            checkpoint_crashes=1,
        )
        crashed = result.crashed_points
        assert len(crashed) == len(result.points) > 1
        assert result.mismatches == crashed
        assert all(p.detail == "diverged fields: horizon" for p in crashed)
        assert not result.ok

    def test_drifting_durable_run_is_a_typed_error(self, tmp_path):
        run = compact_run()

        def drifted(**durability):
            report, policy = run(**durability)
            if durability:
                report.trace.note(0, "drifted")
            return report, policy

        with pytest.raises(FaultInjectionError, match="notes"):
            kill_and_resume(drifted, tmp_path, checkpoint_every=5)
