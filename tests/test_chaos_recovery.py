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
Tier-1 kills :func:`matrix_scenario` at every third record boundary; the
same ``crash-matrix`` job also sweeps it at stride 1 (every boundary),
the full proof of the interrupted-equals-uninterrupted contract.
"""

from __future__ import annotations

import pytest

from repro.baselines import RotaAdmission
from repro.errors import FaultInjectionError
from repro.faults import (
    FaultPlan,
    RecoveryPolicy,
    chaos_crash_matrix,
    faulty_scenario,
)
from repro.faults.chaos import SimulatorAdapter, kill_and_resume
from repro.system import OpenSystemSimulator, ReservationPolicy
from repro.workloads import volunteer_scenario


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


def compact_scenario():
    return faulty_scenario(
        volunteer_scenario(5, nodes=3, horizon=20, session_rate=0.6),
        FaultPlan(seed=17, crash_rate=0.02, revocation_rate=0.25),
    )


class TamperedResume(SimulatorAdapter):
    """Mutant: every resume returns a report whose horizon is off."""

    def resume(self, pointdir, checkpoint):
        return {**super().resume(pointdir, checkpoint), "horizon": "tampered"}


class TestLoopCanFail:
    """Mutation self-checks: the loop reports what a broken resume or a
    drifting durable run does, instead of passing vacuously."""

    def test_tampered_resume_fails_every_crashed_point(self, tmp_path):
        scenario = compact_scenario()
        result = kill_and_resume(
            TamperedResume(scenario, simulator_factory(scenario), 3),
            tmp_path,
            boundary_stride=7,
            checkpoint_crashes=1,
        )
        crashed = result.crashed_points
        assert len(crashed) == len(result.points) > 1
        assert result.mismatches == crashed
        assert all(p.detail == "diverged fields: horizon" for p in crashed)
        assert not result.ok

    def test_drifting_durable_run_is_a_typed_error(
        self, tmp_path, monkeypatch
    ):
        durable = SimulatorAdapter.durable

        def drifted(self, journal, checkpoint_dir):
            return {
                **durable(self, journal, checkpoint_dir),
                "notes": "drifted",
            }

        monkeypatch.setattr(SimulatorAdapter, "durable", drifted)
        scenario = compact_scenario()
        with pytest.raises(FaultInjectionError, match="notes"):
            chaos_crash_matrix(scenario, simulator_factory(scenario), tmp_path)
