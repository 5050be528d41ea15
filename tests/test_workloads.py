"""Unit tests for workload generation, churn, and scenarios."""

from __future__ import annotations

import random

import pytest

from repro.errors import WorkloadError
from repro.intervals import Interval
from repro.resources import cpu
from repro.system import Topology
from repro.workloads import (
    churn_events,
    cloud_scenario,
    flash_crowd_requirements,
    mesh_names,
    oracle_instance,
    partitioned_mesh_stream,
    pipeline_scenario,
    poisson_arrivals,
    random_requirement,
    stable_base,
    stalled_enclave_stream,
    volunteer_scenario,
)


class TestGenerators:
    def test_random_requirement_shape(self, rng, cpu1, cpu2):
        req = random_requirement(rng, [cpu1, cpu2], start=5, max_phases=3)
        assert req.start == 5
        assert 1 <= req.phase_count <= 3
        for phase in req.phases:
            assert all(q >= 1 for q in phase.values())

    def test_random_requirement_needs_types(self, rng):
        with pytest.raises(WorkloadError):
            random_requirement(rng, [], start=0)

    def test_poisson_arrivals_in_range(self, rng):
        times = poisson_arrivals(rng, rate=0.5, horizon=50)
        assert all(0 <= t < 50 for t in times)
        assert times == sorted(times)

    def test_poisson_rate_validated(self, rng):
        with pytest.raises(WorkloadError):
            poisson_arrivals(rng, rate=0, horizon=50)


#: Generator calls with a count that is not an int >= 1 (bools included).
BAD_COUNTS = {
    "stalled-nodes-0": lambda: stalled_enclave_stream(0, nodes=0),
    "stalled-nodes-negative": lambda: stalled_enclave_stream(0, nodes=-1),
    "stalled-nodes-bool": lambda: stalled_enclave_stream(0, nodes=True),
    "flash-nodes-0": lambda: flash_crowd_requirements(0, nodes=0),
    "flash-multiplier-0": lambda: flash_crowd_requirements(0, multiplier=0),
    "flash-multiplier-float": lambda: flash_crowd_requirements(
        0, multiplier=2.5
    ),
    "flash-max-quantity-0": lambda: flash_crowd_requirements(
        0, max_quantity=0
    ),
    "mesh-children-float": lambda: partitioned_mesh_stream(0, children=1.5),
    "mesh-children-0": lambda: partitioned_mesh_stream(0, children=0),
    "mesh-names-0": lambda: mesh_names(0),
    "requirement-max-phases-0": lambda: random_requirement(
        random.Random(0), [cpu("l1")], start=0, max_phases=0
    ),
    "oracle-max-actors-0": lambda: oracle_instance(
        random.Random(0), [cpu("l1")], max_actors=0
    ),
    "topology-nodes-bool": lambda: Topology.full_mesh(True),
}


@pytest.mark.parametrize("call", BAD_COUNTS.values(), ids=BAD_COUNTS.keys())
def test_bad_counts_raise_the_typed_workload_error(call):
    with pytest.raises(WorkloadError, match="must be an integer >= 1"):
        call()


class TestOracleInstances:
    def test_divisibility(self, cpu1, cpu2):
        """Every demand must be rate x integer so the quantised oracle is
        exact (phase finishes land on the grid)."""
        rng = random.Random(7)
        for _ in range(20):
            instance = oracle_instance(rng, [cpu1, cpu2])
            for component in instance.requirement.components:
                for phase in component.phases:
                    for ltype, quantity in phase.items():
                        rate = instance.available.rate_at(ltype, 0)
                        assert quantity % rate == 0

    def test_windows_are_integers(self, cpu1, cpu2):
        rng = random.Random(8)
        instance = oracle_instance(rng, [cpu1, cpu2])
        for component in instance.requirement.components:
            assert float(component.start).is_integer()
            assert float(component.deadline).is_integer()


class TestChurn:
    def test_sessions_predeclare_leave(self):
        """Paper: the leave time is specified at join time — terms span
        exactly the session."""
        rng = random.Random(3)
        topo = Topology.full_mesh(3)
        events = churn_events(rng, topo, horizon=60)
        assert events
        for event in events:
            for t in event.resources.terms():
                assert t.window.start >= event.time
                assert t.window.end <= 60

    def test_stable_base_scales(self):
        topo = Topology.full_mesh(2, cpu_rate=8)
        base = stable_base(topo, 10, fraction=0.5)
        assert base.rate_at(cpu("l1"), 0) == 4

    def test_stable_base_fraction_validated(self):
        topo = Topology.full_mesh(2)
        with pytest.raises(WorkloadError):
            stable_base(topo, 10, fraction=0)

    @pytest.mark.parametrize("horizon", [0, -5])
    def test_horizon_validated(self, rng, horizon):
        with pytest.raises(WorkloadError):
            churn_events(rng, Topology.full_mesh(2), horizon=horizon)

    @pytest.mark.parametrize("rate", [0, -0.3])
    def test_session_rate_validated(self, rng, rate):
        with pytest.raises(WorkloadError):
            churn_events(
                rng, Topology.full_mesh(2), horizon=10, session_rate=rate
            )

    @pytest.mark.parametrize(
        "bounds", [{"min_session": 0}, {"min_session": 9, "max_session": 3}]
    )
    def test_session_bounds_validated(self, rng, bounds):
        with pytest.raises(WorkloadError):
            churn_events(rng, Topology.full_mesh(2), horizon=10, **bounds)

    def test_empty_topology_rejected(self, rng):
        with pytest.raises(WorkloadError):
            churn_events(rng, Topology(), horizon=10)


class TestScenarios:
    @pytest.mark.parametrize(
        "factory", [cloud_scenario, volunteer_scenario, pipeline_scenario]
    )
    def test_reproducible(self, factory):
        a, b = factory(5), factory(5)
        assert a.name == b.name
        assert len(a.events) == len(b.events)
        assert a.initial_resources == b.initial_resources

    def test_cloud_has_arrivals_only(self):
        scn = cloud_scenario(1)
        from repro.system import ComputationArrivalEvent

        assert all(isinstance(e, ComputationArrivalEvent) for e in scn.events)

    def test_volunteer_mixes_churn_and_arrivals(self):
        scn = volunteer_scenario(1)
        from repro.system import ComputationArrivalEvent, ResourceJoinEvent

        kinds = {type(e) for e in scn.events}
        assert ComputationArrivalEvent in kinds
        assert ResourceJoinEvent in kinds

    def test_pipeline_requirements_are_ordered_phases(self):
        scn = pipeline_scenario(1)
        from repro.system import ComputationArrivalEvent

        arrivals = [e for e in scn.events if isinstance(e, ComputationArrivalEvent)]
        assert arrivals
        for event in arrivals:
            component = event.requirement.components[0]
            assert component.phase_count == 3
