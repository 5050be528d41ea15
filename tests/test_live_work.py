"""The simulator's state holds live work only.

An actor that is complete, or whose deadline has passed, has no possible
action left.  The simulator drops such actors from ``rho`` at the end of
every slice, so the timed rule (:func:`~repro.logic.transitions.step`)
and the allocation policy walk live work only, and a checkpoint's
``state`` section stays the size of the live work however long the run.
The one fact about a dropped actor that still matters, a part that left
short of completion, is kept by the owner index of open records.  The
admission controllers likewise retire finished schedules and forget the
past.  These tests count what the slice loop visits (no timing), bound
the bytes of the checkpointed state and of whole deltas, and pin a long mesh run's fingerprint to a gold
digest, which catches a change that alters a run and its replay in the
same way.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pickle

import pytest

from repro.baselines import OptimisticAdmission, RotaAdmission
from repro.computation import ComplexRequirement, ConcurrentRequirement, Demands
from repro.faults import (
    PartitionPlan,
    RecoveryPolicy,
    report_fingerprint,
    run_mesh,
)
from repro.faults.detection import components_of
from repro.intervals import Interval
from repro.logic.state import SystemState, initial_state
from repro.logic.transitions import accommodate, step
from repro.resources import ResourceSet, term
from repro.resources.located_type import LocatedType, Node
from repro.system import OpenSystemSimulator, ReservationPolicy, arrival
from repro.system import simulator as simulator_module
from repro.system.checkpoint import CheckpointStore, SimulatorCheckpoint
from repro.system.events import ResourceRevocationEvent
from repro.system.scheduler import EdfPolicy
from repro.workloads import pipeline_scenario

#: E23's plan shape at four times perfbench's horizon.
LONG_PLAN = PartitionPlan(
    seed=0,
    horizon=640,
    children=3,
    partition_start=40,
    partition_duration=24,
    link_delay=1,
    link_jitter=2,
    link_loss=0.1,
)

#: sha256 of ``report_fingerprint(report, policy)`` for ``LONG_PLAN``,
#: as written by the simulator before finished actors left ``rho``.
LONG_PLAN_GOLD = (
    "69ec4650313874a837306e07ae49508aa42998930ef716af6c69ce361845ec52"
)

#: Slices between the long run's checkpoints.
LONG_PLAN_EVERY = 25

CPU = LocatedType("cpu", Node("n1"))


def _digest(fingerprint) -> str:
    blob = json.dumps(
        fingerprint, sort_keys=True, separators=(",", ":"), default=str
    )
    return hashlib.sha256(blob.encode()).hexdigest()


class TestLiveWork:
    @pytest.fixture(scope="class")
    def visited(self, tmp_path_factory):
        """Run ``LONG_PLAN`` once, checkpointed, recording every state
        that ``step`` and the EDF allocator were handed, what each step
        produced, and the simulator's final state."""
        seen = {"step": [], "stepped": [], "allocate": []}
        real_step = simulator_module.step
        real_allocate = EdfPolicy.allocate
        real_execute = OpenSystemSimulator._execute

        def counting_step(state, dt, allocations=None):
            seen["step"].append(state)
            transition = real_step(state, dt, allocations)
            seen["stepped"].append(transition.target)
            return transition

        def counting_allocate(policy, state, dt):
            seen["allocate"].append(state)
            return real_allocate(policy, state, dt)

        def keeping_execute(simulator):
            report = real_execute(simulator)
            seen["final"] = simulator._state
            seen["open"] = dict(simulator._open)
            return report

        directory = tmp_path_factory.mktemp("long-plan")
        patch = pytest.MonkeyPatch()
        patch.setattr(simulator_module, "step", counting_step)
        patch.setattr(EdfPolicy, "allocate", counting_allocate)
        patch.setattr(OpenSystemSimulator, "_execute", keeping_execute)
        try:
            report, policy = run_mesh(
                LONG_PLAN,
                checkpoint_every=LONG_PLAN_EVERY,
                checkpoint_dir=directory,
            )
        finally:
            patch.undo()
        return seen, report, policy, directory

    def test_fingerprint_matches_gold(self, visited):
        _, report, policy, _ = visited
        assert _digest(report_fingerprint(report, policy)) == LONG_PLAN_GOLD

    @pytest.mark.parametrize("phase", ["step", "allocate"])
    def test_visits_are_bounded_by_the_live_count(self, visited, phase):
        """Every slice sees exactly the actors not finished at its start:
        none that can never act again, and every live one the previous
        slice left, unless a fault evicted its record there."""
        seen, report, _, _ = visited
        states = seen[phase]
        assert len(states) == report.trace.steps == LONG_PLAN.horizon
        evicted = {
            (record.label, record.violated_at)
            for record in report.records
            if record.violated_at is not None
        }
        for state in states:
            assert not any(p.finished_at(state.t) for p in state.rho)
        for stepped, after in zip(seen["stepped"], states[1:]):
            kept = {p.label for p in after.rho}
            for progress in stepped.rho:
                if progress.finished_at(stepped.t):
                    continue
                owner = progress.label.split("[")[0]
                assert (
                    progress.label in kept or (owner, after.t) in evicted
                ), (progress.label, after.t)
        final = seen["final"]
        assert not any(p.finished_at(final.t) for p in final.rho)

    def test_records_settle_as_their_actors_retire(self, visited):
        """A settled record has no part left in the final state, and the
        owner index holds exactly the records still running."""
        seen, report, _, _ = visited
        final = seen["final"]
        for record in report.records:
            if record.admitted and record.outcome != "running":
                assert components_of(final, record.label) == ()
        running = [r.label for r in report.records if r.outcome == "running"]
        assert list(seen["open"]) == running

    def test_mesh_placements_hold_open_labels_only(self, visited):
        """The mesh forgets a label's placement when its record settles:
        after the run the table names running records only."""
        seen, report, policy, _ = visited
        assert report.admitted > 0
        assert set(policy._placements) <= set(seen["open"])

    def test_checkpointed_state_stays_the_size_of_live_work(self, visited):
        """The ``state`` part of the last delta is within 1.5x of the
        first one's: dropped actors never ride a checkpoint again."""
        *_, directory = visited
        sizes = {}
        for path in sorted(directory.glob("ckpt-*.json")):
            checkpoint = SimulatorCheckpoint.load(path)
            if not checkpoint.is_delta:
                continue
            parts = pickle.loads(checkpoint.payload)["parts"]
            sizes[checkpoint.step] = len(
                pickle.dumps(parts["state"], protocol=pickle.HIGHEST_PROTOCOL)
            )
        first, last = min(sizes), max(sizes)
        assert first == LONG_PLAN_EVERY
        assert last >= LONG_PLAN.horizon - 2 * LONG_PLAN_EVERY
        assert sizes[last] <= 1.5 * sizes[first], sizes

    def test_checkpoint_deltas_stay_the_size_of_live_work(self, visited):
        """The whole last delta is within 1.5x of the first one: the
        admission controllers retire finished schedules and cut the past,
        so neither the state nor the admission section grows with
        elapsed time."""
        *_, directory = visited
        sizes = {}
        for path in sorted(directory.glob("ckpt-*.json")):
            checkpoint = SimulatorCheckpoint.load(path)
            if checkpoint.is_delta:
                sizes[checkpoint.step] = len(checkpoint.payload)
        first, last = min(sizes), max(sizes)
        assert first == LONG_PLAN_EVERY
        assert last >= LONG_PLAN.horizon - 2 * LONG_PLAN_EVERY
        assert sizes[last] <= 1.5 * sizes[first], sizes


class TestDropFinished:
    def test_state_is_theta_rho_and_t(self):
        assert [f.name for f in dataclasses.fields(SystemState)] == [
            "theta", "rho", "t",
        ]

    def test_dropping_keeps_order_and_is_idempotent(self):
        theta = ResourceSet.of(term(1, CPU, 0, 10))
        state = initial_state(theta)
        for label, deadline in (("a", 2), ("b", 8), ("c", 1), ("d", 9)):
            state = accommodate(
                state,
                ComplexRequirement(
                    [Demands({CPU: 5})], Interval(0, deadline), label=label
                ),
            )
        later = step(step(state, 1).target, 1).target
        assert [p.label for p in later.missed] == ["a", "c"]
        dropped = later.drop_finished()
        assert [p.label for p in dropped.rho] == ["b", "d"]
        assert dropped.drop_finished() is dropped
        assert dropped.missed == ()


N0 = LocatedType("cpu", Node("n0"))
N1 = LocatedType("cpu", Node("n1"))


def plain_miss_run(**durability):
    """A two-part arrival whose part ``a`` cannot finish by its own
    deadline (t=4) while part ``b`` runs on, then a revocation at t=8
    that leaves ``b`` infeasible too.  The record is a plain miss from
    t=4 on: no recovery can meet ``a``'s deadline."""
    resources = ResourceSet.of(term(1, N0, 0, 40), term(2, N1, 0, 40))
    job = ConcurrentRequirement(
        (
            ComplexRequirement([Demands({N0: 10})], Interval(0, 4), label="a"),
            ComplexRequirement([Demands({N1: 20})], Interval(0, 20), label="b"),
        ),
        Interval(0, 20),
    )
    policy = OptimisticAdmission()
    simulator = OpenSystemSimulator(
        policy,
        initial_resources=resources,
        recovery=RecoveryPolicy(max_attempts=3),
    )
    simulator.schedule(
        arrival(0, job, "job"),
        ResourceRevocationEvent(
            time=8, resources=ResourceSet.of(term(2, N1, 8, 20))
        ),
    )
    return simulator.run(40, **durability), policy


class TestPlainMiss:
    def test_a_record_with_a_part_gone_short_is_never_flagged(self):
        report, _ = plain_miss_run()
        (record,) = report.records
        assert record.admitted
        assert record.violated_at is None
        assert not report.trace.violations
        assert record.outcome == "missed"

    def test_resume_between_the_part_leaving_and_the_fault(self, tmp_path):
        report, policy = plain_miss_run(
            checkpoint_every=1, checkpoint_dir=tmp_path
        )
        expected = report_fingerprint(report, policy)
        # Step 6 (t=6): part a left rho at t=4, the fault lands at t=8.
        path = CheckpointStore(tmp_path).path_for(6)
        resumed = OpenSystemSimulator.resume(path)
        assert [p.label for p in resumed._state.rho] == ["job[1]"]
        assert sorted(resumed._open["job"]) == ["job[0]", "job[1]"]
        report = resumed.resume_run()
        assert report.records[0].violated_at is None
        assert (
            report_fingerprint(report, resumed.admission_policy) == expected
        )


class TestReservationRelease:
    def test_only_unsettled_reservations_remain(self):
        scenario = pipeline_scenario(seed=3)
        allocation = ReservationPolicy()
        simulator = OpenSystemSimulator(
            RotaAdmission(),
            initial_resources=scenario.initial_resources,
            allocation_policy=allocation,
        )
        simulator.schedule(*scenario.events)
        report = simulator.run(scenario.horizon)
        unsettled = {
            r.label for r in report.records if r.outcome == "running"
        }
        assert report.completed
        assert set(allocation._reservations) <= unsettled
