"""Unreliable-network fault model: plan validation, mesh runs, lease
expiry through the recovery pipeline, and the partition matrix.

The expensive end-to-end sweeps live in ``benchmarks/bench_netfaults.py``
(E22); here each mechanism gets a targeted scenario, including a
hand-built saturated-lease run where an expiry *must* strand admitted
work and push it through evict -> local re-admit -> migration offer ->
abandon-with-salvage while the partition severs every escape route.
"""

from __future__ import annotations

import dataclasses

import pytest

from benchmarks import bench_netfaults
from repro.errors import FaultInjectionError
from repro.faults import (
    MeshPolicy,
    PartitionPlan,
    admitted_promise_violations,
    chaos_partition_matrix,
    run_mesh,
)
from repro.faults import netfaults
from repro.faults.chaos import report_fingerprint
from repro.faults.recovery import RecoveryPolicy
from repro.computation import ComplexRequirement, ConcurrentRequirement, Demands
from repro.intervals import Interval
from repro.resources import ResourceSet, cpu, term
from repro.system.events import (
    arrival,
    partition_heal,
    partition_start,
    resource_join,
)
from repro.system.simulator import OpenSystemSimulator


# ----------------------------------------------------------------------
# The plan
# ----------------------------------------------------------------------

class TestPartitionPlan:
    @pytest.mark.parametrize("kwargs", [
        {"children": 0},
        {"children": 1.5},
        {"children": True},
        {"severed": ("n9",)},
        {"severed": ()},
        {"partition_start": 99},  # >= horizon 48
        {"partition_start": -1},
        {"link_loss": 1.5},
        {"link_delay": -1},
        {"lease_ttl": 0},
        {"renew_every": 0},
        {"renew_every": 6},  # == lease_ttl: dead on a perfect network too
        {"link_jitter": -1},
        {"partition_duration": -1},
        {"deadline_slack": 0},
        {"link_loss": float("nan")},
        {"partition_duration": 0, "horizon": 0},
        # a fractional horizon used to construct and fail inside run_mesh
        {"horizon": 160.5},
        {"horizon": "48"},
        {"horizon": True},
        {"seed": "a"},
        {"partition_start": float("nan")},
        {"lease_ttl": float("inf")},
        {"deadline_slack": float("nan")},
        {"deadline_slack": -1},
        # used to escape as a bare TypeError from the lease_ttl comparison
        {"lease_ttl": "6"},
    ])
    def test_invalid_plans_rejected(self, kwargs):
        with pytest.raises(FaultInjectionError):
            PartitionPlan(**kwargs)

    @pytest.mark.parametrize("severed", [True, 5, "n1", ("n1", 2), None])
    def test_severed_must_be_a_sequence_of_names(self, severed):
        """``True``/``5`` escaped as bare ``TypeError``s, and a bare
        string was iterated character by character."""
        with pytest.raises(FaultInjectionError, match="tuple or list"):
            PartitionPlan(severed=severed)

    def test_severed_accepts_a_list(self):
        assert PartitionPlan(severed=["n1"]).severed_links == (("n0", "n1"),)

    def test_shape_properties(self):
        plan = PartitionPlan(children=2)
        assert plan.door == "n0"
        assert plan.node_names == ("n0", "n1", "n2")
        assert plan.partition_end == 28
        assert plan.severed_links == (("n0", "n1"),)
        assert not plan.is_benign

    def test_benign_means_no_partition_and_a_perfect_link(self):
        assert PartitionPlan(partition_duration=0).is_benign
        assert not PartitionPlan(partition_duration=0, link_delay=1).is_benign

    def test_network_carries_the_partition_span(self):
        network = PartitionPlan().network()
        (span,) = network.partitions
        assert (span.start, span.end) == (18, 28)
        assert span.severed == (("n0", "n1"),)
        assert span.cuts("n0", "n1", 20)
        assert not span.cuts("n0", "n2", 20)

    def test_benign_network_is_perfect(self):
        plan = PartitionPlan(partition_duration=0)
        assert plan.is_benign
        network = plan.network()
        assert network.partitions == ()
        assert network.default.is_perfect and network.links == ()


# ----------------------------------------------------------------------
# Mesh runs
# ----------------------------------------------------------------------

class TestMeshRuns:
    def test_benign_mesh_keeps_every_promise(self):
        plan = PartitionPlan(partition_duration=0)
        report, policy = run_mesh(plan)
        assert admitted_promise_violations(report) == []
        assert report.admitted == report.arrivals  # nothing refused
        assert policy.leases.expired() == []
        assert len(policy.leases) == 2  # both joins became grants
        stats = policy.channel.stats
        assert stats.lost == stats.severed == 0
        assert stats.by_kind["join"] == 2
        assert stats.by_kind["lease-renew"] > 0
        assert stats.by_kind["lease-ack"] > 0
        assert policy.joins_shed == 0

    def test_partition_expires_leases_never_promises(self):
        report, policy = run_mesh(PartitionPlan())
        assert admitted_promise_violations(report) == []
        assert len(policy.leases.expired()) >= 1
        expired = policy.leases.expired()[0]
        assert expired.failed_renewals >= 1
        assert report.trace.lost_totals("lease-expired")
        assert report.trace.conservation_gaps(report.offered) == []
        notes = [n.message for n in report.trace.notes]
        assert any("degraded autonomy" in n for n in notes)
        assert any("reconciled" in n for n in notes)

    def test_seeded_replay_is_field_identical(self):
        plan = PartitionPlan(link_loss=0.15, link_jitter=2)
        first, _ = run_mesh(plan)
        second, _ = run_mesh(plan)
        assert report_fingerprint(first) == report_fingerprint(second)

    def test_a_verdict_after_a_component_deadline_lands_late(self):
        """The admission verdict lands at t=2, after component ``a``'s
        deadline (t=1) but inside the arrival's window: the mesh counts
        it as landing after the deadline, never clipping ``a`` to an
        empty window."""
        plan = PartitionPlan(partition_duration=0, link_delay=1)
        policy = MeshPolicy(plan)
        policy.observe_resources(
            ResourceSet.of(
                term(2, cpu("n0"), 0, 40), term(2, cpu("n1"), 0, 40)
            ),
            0,
        )
        job = ConcurrentRequirement(
            (
                ComplexRequirement(
                    [Demands({cpu("n1"): 1})], Interval(0, 1), label="a"
                ),
                ComplexRequirement(
                    [Demands({cpu("n1"): 10})], Interval(0, 20), label="b"
                ),
            ),
            Interval(0, 20),
        )
        decision = policy.decide(job, 0)
        assert not decision.admitted
        assert decision.reason == (
            "verdict from 'n1' landed at t=2 — after the deadline"
        )
        assert policy.rpc_failures == 1

    def test_lossy_joins_are_shed_at_the_boundary(self):
        plan = PartitionPlan(partition_duration=0, link_loss=1.0)
        report, policy = run_mesh(plan)
        assert policy.joins_shed == 2  # every join died on the wire
        assert len(policy.leases) == 0
        assert report.trace.conservation_gaps(report.offered) == []


class TestSaturatedLeaseVictim:
    """A lease expiry that strands admitted work: the committed quantity
    exceeds the post-renunciation capacity, so the dependent is evicted,
    fails its degraded-autonomy re-admission, finds every migration
    offer severed, and is honestly abandoned with salvage."""

    def build(self):
        plan = PartitionPlan(
            seed=0,
            children=1,
            severed=("n1",),
            partition_start=8,
            partition_duration=30,
            lease_ttl=4,
            renew_every=1,
            horizon=60,
        )
        base = ResourceSet.of(
            term(1, cpu("n0"), 0, 60), term(1, cpu("n1"), 0, 60)
        )
        window = Interval(3, 40)
        big = ConcurrentRequirement(
            (
                ComplexRequirement(
                    [Demands({cpu("n1"): 200})], window, label="big"
                ),
            ),
            window,
        )
        events = [
            resource_join(2, ResourceSet.of(term(5, cpu("n1"), 2, 60))),
            arrival(3, big, label="big"),
            partition_start(8, "p0", plan.severed_links),
            partition_heal(38, "p0", plan.severed_links),
        ]
        return plan, base, events

    def run(self):
        plan, base, events = self.build()
        policy = MeshPolicy(plan)
        simulator = OpenSystemSimulator(
            policy,
            initial_resources=base,
            recovery=RecoveryPolicy(),
            invariant_interval=1,
        )
        simulator.schedule(*events)
        return simulator.run(plan.horizon), policy

    def test_expiry_strands_the_dependent_into_honest_abandonment(self):
        report, policy = self.run()
        outcomes = {r.label: r.outcome for r in report.records}
        assert outcomes["big"] == "abandoned"
        assert admitted_promise_violations(report) == []
        (lease,) = policy.leases.expired()
        assert "big" in lease.dependents
        assert lease.failed_renewals >= 1
        assert report.trace.lost_totals("lease-expired")
        assert report.trace.conservation_gaps(report.offered) == []
        # The migration offer died on the severed link, so the abandon
        # reason is honest unreachability, not a silent miss.
        assert policy.rpc_failures >= 1
        assert policy.migrations == 0

    def test_the_saturated_run_replays_identically(self):
        first, _ = self.run()
        second, _ = self.run()
        assert report_fingerprint(first) == report_fingerprint(second)


# ----------------------------------------------------------------------
# The partition matrix
# ----------------------------------------------------------------------

class TestPartitionMatrix:
    def test_quick_matrix_is_clean(self):
        result = chaos_partition_matrix(
            PartitionPlan(),
            starts=(18,),
            durations=(0, 10),
            losses=(0.0,),
            delays=(0,),
        )
        assert result.ok, result.summary()
        assert len(result.points) == 2
        assert "2 partition points" in result.summary()
        benign, partitioned = result.points
        assert benign.duration == 0
        assert partitioned.lease_expirations >= 1

    def test_points_demand_identity_and_zero_violations(self):
        result = chaos_partition_matrix(
            PartitionPlan(), starts=(18,), durations=(10,),
            losses=(0.0,), delays=(0,),
        )
        (point,) = result.points
        assert point.identical
        assert point.violations == []
        assert point.detail == ""


def wire_drifting(run_mesh):
    """Mutant ``run_mesh``: every second run ends with wire state its
    report cannot show (one more RPC sequence number, one more late
    ack)."""
    runs = []

    def drifted(plan, **kwargs):
        report, policy = run_mesh(plan, **kwargs)
        runs.append(plan)
        if len(runs) % 2 == 0:
            policy._rpc_seq += 1
            policy.late_acks += 1
        return report, policy

    return drifted


class TestReplayCanFail:
    """Mesh replay compares the wire, not only the report."""

    def test_wire_only_drift_fails_the_matrix(self, monkeypatch):
        monkeypatch.setattr(netfaults, "run_mesh", wire_drifting(run_mesh))
        result = chaos_partition_matrix(
            PartitionPlan(), starts=(18,), durations=(0,),
            losses=(0.0,), delays=(0,),
        )
        (point,) = result.points
        assert not point.identical
        assert not point.ok and not result.ok
        assert point.detail == "diverged fields: network"

    def test_wire_only_drift_flips_the_e22_verdict(self, monkeypatch):
        monkeypatch.setattr(
            bench_netfaults, "run_mesh", wire_drifting(run_mesh)
        )
        results = bench_netfaults.run_suite(quick=True)
        assert not any(row["identical"] for row in results["rows"])
        assert results["verdicts"]["replay_identical"] is False
