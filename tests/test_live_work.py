"""Per-slice work follows the live actors, not everything admitted.

An actor that is complete, or whose deadline has passed, has no possible
action left.  The simulator retires such actors from ``rho`` into the
state's ``finished`` tuple at the end of every slice, so the timed rule
(:func:`~repro.logic.transitions.step`) and the allocation policy walk
live work only, while the logic-level views still see every accommodated
actor.  These tests count what the slice loop visits (no timing) and pin
a long mesh run's fingerprint to a gold digest, which catches a change
that alters a run and its replay in the same way.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.baselines import RotaAdmission
from repro.computation import ComplexRequirement, Demands
from repro.faults import PartitionPlan, report_fingerprint, run_mesh
from repro.faults.detection import components_of
from repro.intervals import Interval
from repro.logic.paths import ComputationPath
from repro.logic.state import initial_state
from repro.logic.transitions import Transition, accommodate, step
from repro.resources import ResourceSet, term
from repro.resources.located_type import LocatedType, Node
from repro.system import OpenSystemSimulator, ReservationPolicy
from repro.system import simulator as simulator_module
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

CPU = LocatedType("cpu", Node("n1"))


def _digest(fingerprint) -> str:
    blob = json.dumps(
        fingerprint, sort_keys=True, separators=(",", ":"), default=str
    )
    return hashlib.sha256(blob.encode()).hexdigest()


class TestLiveWork:
    @pytest.fixture(scope="class")
    def visited(self):
        """Run ``LONG_PLAN`` once, recording every state that ``step``
        and the EDF allocator were handed, and the simulator's final
        state."""
        seen = {"step": [], "allocate": []}
        real_step = simulator_module.step
        real_allocate = EdfPolicy.allocate
        real_execute = OpenSystemSimulator._execute

        def counting_step(state, dt, allocations=None):
            seen["step"].append(state)
            return real_step(state, dt, allocations)

        def counting_allocate(policy, state, dt):
            seen["allocate"].append(state)
            return real_allocate(policy, state, dt)

        def keeping_execute(simulator):
            report = real_execute(simulator)
            seen["final"] = simulator._state
            return report

        patch = pytest.MonkeyPatch()
        patch.setattr(simulator_module, "step", counting_step)
        patch.setattr(EdfPolicy, "allocate", counting_allocate)
        patch.setattr(OpenSystemSimulator, "_execute", keeping_execute)
        try:
            report, policy = run_mesh(LONG_PLAN)
        finally:
            patch.undo()
        return seen, report, policy

    def test_fingerprint_matches_gold(self, visited):
        _, report, policy = visited
        assert _digest(report_fingerprint(report, policy)) == LONG_PLAN_GOLD

    @pytest.mark.parametrize("phase", ["step", "allocate"])
    def test_visits_are_bounded_by_the_live_count(self, visited, phase):
        seen, report, _ = visited
        states = seen[phase]
        assert len(states) == report.trace.steps == LONG_PLAN.horizon
        for state in states:
            live = sum(1 for p in state if not p.finished_at(state.t))
            assert len(state.rho) == live
        # Everything admitted stays in the logic view; the loop saw a
        # small fraction of it.
        final = seen["final"]
        assert len(final.finished) >= report.completed
        visited_total = sum(len(state.rho) for state in states)
        whole_total = sum(len(state.rho) + len(state.finished) for state in states)
        assert visited_total * 20 < whole_total

    def test_records_settle_as_their_actors_retire(self, visited):
        seen, report, _ = visited
        final = seen["final"]
        for record in report.records:
            if not record.admitted:
                continue
            parts = components_of(final, record.label)
            assert parts, record.label
            if record.completed:
                assert all(p.is_complete for p in parts)
                assert all(p in final.finished for p in parts)


class TestLogicView:
    def test_finished_actors_stay_visible(self):
        theta = ResourceSet.of(term(2, CPU, 0, 10))
        job = ComplexRequirement(
            [Demands({CPU: 2})], Interval(0, 5), label="job"
        )
        state = accommodate(initial_state(theta), job)
        first = step(state, 1, {"job": Demands({CPU: 2})})
        retired = first.target.retire_finished()
        assert retired.rho == () and len(retired.finished) == 1
        assert retired.progress_of("job").is_complete
        assert retired.is_quiescent and retired.pending == ()
        assert components_of(retired, "job") == retired.finished
        path = ComputationPath(
            (Transition(state, first.label, retired),),
            state,
        )
        assert path.completes("job")
        # The timed rule walks rho only: the retired actor rides along.
        later = step(retired, 1)
        assert later.target.finished == retired.finished

    def test_retiring_keeps_order_and_is_idempotent(self):
        theta = ResourceSet.of(term(1, CPU, 0, 10))
        state = initial_state(theta)
        for label, deadline in (("a", 2), ("b", 8), ("c", 1)):
            state = accommodate(
                state,
                ComplexRequirement(
                    [Demands({CPU: 5})], Interval(0, deadline), label=label
                ),
            )
        later = step(step(state, 1).target, 1).target
        retired = later.retire_finished()
        assert [p.label for p in retired.rho] == ["b"]
        assert [p.label for p in retired.finished] == ["a", "c"]
        assert retired.retire_finished() is retired
        assert [p.label for p in retired.missed] == ["a", "c"]


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
