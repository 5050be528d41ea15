"""The chaos overload matrix: injectable overload, provable guarantees."""

from __future__ import annotations

import dataclasses
import functools
import math

import pytest

from repro.errors import FaultInjectionError
from repro.faults import (
    OverloadPlan,
    chaos_overload_matrix,
    overload,
    report_fingerprint,
)
from repro.faults.chaos import kill_and_resume
from repro.service import ServiceReport
from repro.service.frontdoor import ADMITTED, REJECTED
from repro.workloads import flash_crowd_requests, stalled_enclave_stream


class TestOverloadPlan:
    @pytest.mark.parametrize("kwargs", [
        {"multipliers": ()},
        {"multipliers": (0,)},
        {"multipliers": (1, -2)},
        {"multipliers": (1.5,)},
        {"multipliers": (True,)},
        {"multipliers": (1, False)},
        {"nodes": 0},
        {"nodes": 2.5},
        {"nodes": True},
        {"burst_at": -1},
        {"burst_duration": 0},
        {"horizon": 20, "burst_at": 20},
        {"deadline_slack": 0},
        {"seed": "x"},
        # NaN and bools used to construct; None, 'x' and a bare bool for
        # multipliers escaped as bare TypeErrors
        *(
            {name: value}
            for name in (
                "burst_at", "burst_duration", "horizon", "deadline_slack"
            )
            for value in (math.nan, True, None, "x")
        ),
        {"multipliers": True},
        {"multipliers": 4},
    ])
    def test_invalid_plans_rejected(self, kwargs):
        with pytest.raises(FaultInjectionError):
            OverloadPlan(**kwargs)

    def test_default_plan_is_the_full_ladder(self):
        plan = OverloadPlan()
        assert plan.multipliers == (1, 2, 4, 10)
        assert plan.stalled_enclave


class TestWorkloadDeterminism:
    def test_flash_crowd_is_a_pure_function_of_its_seed(self):
        first = flash_crowd_requests(3, multiplier=4)
        second = flash_crowd_requests(3, multiplier=4)
        assert [r.label for r in first[1]] == [r.label for r in second[1]]
        assert [r.arrival for r in first[1]] == [r.arrival for r in second[1]]

    def test_seed_changes_the_stream(self):
        # Arrival cadence is fixed by design; the seed draws which node
        # each request lands on and how much it demands.
        _, a = flash_crowd_requests(0, multiplier=4)
        _, b = flash_crowd_requests(1, multiplier=4)

        def demands(requests):
            return [
                str(component.total_demands)
                for request in requests
                for component in request.requirement.components
            ]

        assert demands(a) != demands(b)

    def test_multiplier_scales_offered_load(self):
        _, base = flash_crowd_requests(0, multiplier=1)
        _, heavy = flash_crowd_requests(0, multiplier=10)
        assert len(heavy) > len(base)

    def test_stalled_enclave_stream_names_its_stalls(self):
        resources, requests, joins, stalls = stalled_enclave_stream(0)
        assert requests and joins and stalls
        enclaves = {
            ltype.location.name
            for ltype in (t.ltype for t in resources.terms())
        }
        assert set(stalls) <= enclaves


class TestChaosOverloadMatrix:
    def test_quick_matrix_is_clean(self):
        result = chaos_overload_matrix(OverloadPlan(multipliers=(1, 10)))
        assert result.ok, result.summary() + "".join(
            f"\n  {p.kind}@{p.multiplier}x: {p.detail or p.queueing_violations}"
            for p in result.failures
        )
        kinds = [p.kind for p in result.points]
        assert kinds == [
            "flash-crowd", "flash-crowd", "stalled-enclave", "simulator"
        ]
        # The 10x cell genuinely sheds, and the degraded path genuinely
        # cross-checked its screen rejections.
        ten_x = next(
            p for p in result.points
            if p.kind == "flash-crowd" and p.multiplier == 10
        )
        assert ten_x.shed > 0
        assert ten_x.admitted > 0

    def test_matrix_without_stalled_leg(self):
        result = chaos_overload_matrix(
            OverloadPlan(multipliers=(2,), stalled_enclave=False)
        )
        assert [p.kind for p in result.points] == ["flash-crowd"]
        assert result.ok


def flip_first_verdict(door):
    """Turn the first entry of a door's decision log into its opposite."""
    first = door.outcomes[0]
    door.outcomes[0] = dataclasses.replace(
        first, outcome=REJECTED if first.admitted else ADMITTED
    )


class TestReplayCanFail:
    """Mutation self-checks: a second run that differs only where one
    leg's fingerprint looks must fail that leg, naming the field."""

    def test_serve_mutant_fails_the_door_leg(self, monkeypatch):
        from_door = ServiceReport.from_door.__func__
        doors = []

        def drifting(cls, door, horizon):
            doors.append(door)
            if len(doors) == 2:
                flip_first_verdict(door)
            return from_door(cls, door, horizon)

        monkeypatch.setattr(ServiceReport, "from_door", classmethod(drifting))
        result = chaos_overload_matrix(
            OverloadPlan(multipliers=(1,), stalled_enclave=False)
        )
        (point,) = result.points
        assert not point.identical
        assert not point.ok and not result.ok
        assert point.detail == "diverged fields: decisions"

    def test_door_log_mutant_fails_the_simulator_leg(self, monkeypatch):
        run = overload._door_simulation
        runs = []

        def drifting(plan):
            report, policy = run(plan)
            runs.append(plan)
            if len(runs) == 2:
                flip_first_verdict(policy.door)
            return report, policy

        monkeypatch.setattr(overload, "_door_simulation", drifting)
        result = chaos_overload_matrix(OverloadPlan(multipliers=(1,)))
        assert [p.kind for p in result.points] == [
            "flash-crowd", "stalled-enclave", "simulator"
        ]
        door_leg, stalled, simulator = result.points
        assert door_leg.ok and stalled.ok
        assert not simulator.identical
        assert not simulator.ok and not result.ok
        assert simulator.detail == "diverged fields: door"


#: The simulator leg's door-fronted stalled-enclave run, as the
#: kill-and-resume loop's ``run(**durability)``; the CI crash-matrix job
#: sweeps it at stride 1.
door_run = functools.partial(overload._door_simulation, OverloadPlan())


class TestFrontDoorCrashResume:
    def test_fingerprint_carries_the_door_log(self):
        report, policy = door_run()
        assert report_fingerprint(report, policy) == {
            **report_fingerprint(report), "door": policy.door.fingerprint(),
        }

    def test_killed_door_run_resumes_identically(self, tmp_path):
        """A door-fronted run killed at sampled journal boundaries, torn
        mid-write, and during checkpoint saves resumes to the same
        report and the same door decision log."""
        result = kill_and_resume(
            door_run, tmp_path, checkpoint_every=3, boundary_stride=12
        )
        assert result.crashed_points, "budget never hit: matrix proved nothing"
        assert result.mismatches == [], result.summary()
        assert any(p.kind == "checkpoint" for p in result.crashed_points)
        assert all(
            p.resumed_from.startswith("ckpt-") for p in result.crashed_points
        )
        assert result.ok
