"""Crash-consistent mesh runs: the wire survives kill -9.

The journaled mesh contract has three layers, tested bottom-up here:

* the policy's wire state round-trips through the checkpoint's
  ``network`` section (single authority: the pickled policy itself
  carries none of it);
* a run killed at a journal-record boundary — including mid-partition
  and mid-RPC-backoff — resumes to a field-identical report and a
  byte-identical network digest, never re-deciding a fate draw;
* the partition x crash matrix proves it across cells, with explicit
  coverage of the hard phases and of kills during checkpoint saves.

The plan below is deliberately smaller than the default mesh (shorter
horizon, fewer records) so the strided matrix stays tier-1 fast; the
full stride-1 sweep over it runs as its own step of the CI
``crash-matrix`` job.
"""

from __future__ import annotations

import pytest

from repro.baselines import RotaAdmission
from repro.errors import CheckpointError, FaultInjectionError
from repro.faults import (
    MeshPolicy,
    PartitionPlan,
    SimulatedCrash,
    chaos_crash_matrix,
    chaos_partition_crash_matrix,
    crashing_opener,
    network_digest,
    report_fingerprint,
    run_mesh,
)
from repro.faults import netfaults
from repro.system import OpenSystemSimulator
from repro.system.checkpoint import Journal
from repro.workloads import volunteer_scenario

#: A compact mesh: lossy, delayed, partitioned — every fate kind shows
#: up, but the journal stays small enough for exhaustive-ish killing.
PLAN = PartitionPlan(
    seed=1,
    horizon=30,
    partition_start=10,
    partition_duration=8,
    link_delay=1,
    link_loss=0.15,
)


def durable_run(plan, directory, *, crash_at_write=None, checkpoint_every=4):
    """One journaled+checkpointed mesh run under ``directory``."""
    directory.mkdir(parents=True, exist_ok=True)
    opener = (
        crashing_opener(crash_at_write=crash_at_write)
        if crash_at_write is not None
        else open
    )
    journal = Journal(directory / "journal.jsonl", opener=opener)
    try:
        return run_mesh(
            plan,
            checkpoint_every=checkpoint_every,
            checkpoint_dir=directory,
            journal=journal,
        )
    finally:
        journal.close()


def resume(directory):
    """The one resume call, plus the restored policy."""
    simulator = OpenSystemSimulator.resume(
        directory, directory / "journal.jsonl"
    )
    return simulator.resume_run(), simulator.admission_policy


class TestNetworkSnapshot:
    def test_roundtrip_restores_an_identical_wire(self):
        _, policy = run_mesh(PLAN)
        snapshot = policy.network_snapshot()
        twin = MeshPolicy(PLAN)
        twin.restore_network(snapshot)
        assert network_digest(twin) == network_digest(policy)
        assert twin.channel.log == policy.channel.log
        assert twin.channel.stats == policy.channel.stats

    def test_pickled_policy_carries_no_wire_state(self):
        """Single authority: the checkpoint's ``network`` section is the
        only carrier; the pickled policy is an empty-wire shell."""
        import pickle

        _, policy = run_mesh(PLAN)
        assert policy.channel.stats.sent > 0
        shell = pickle.loads(pickle.dumps(policy))
        assert shell.channel.stats.sent == 0
        assert len(shell.leases) == 0
        assert shell.drain_wire_records() == []

    def test_checkpoint_without_network_section_refuses_resume(
        self, tmp_path, monkeypatch
    ):
        """A checkpoint written without wire state cannot soundly resume
        a wire-carrying policy — that must be an error, not a silent
        empty channel."""
        with monkeypatch.context() as patch:
            patch.delattr(MeshPolicy, "network_snapshot")
            durable_run(PLAN, tmp_path)
        with pytest.raises(CheckpointError, match="network"):
            resume(tmp_path)

    def test_resume_with_no_artifacts_is_an_error(self, tmp_path):
        with pytest.raises(CheckpointError, match="nothing to resume"):
            resume(tmp_path)


class TestCrashResume:
    def test_journaling_changes_nothing(self, tmp_path):
        truth_report, truth_policy = run_mesh(PLAN)
        report, policy = durable_run(PLAN, tmp_path)
        assert report_fingerprint(report) == report_fingerprint(truth_report)
        assert network_digest(policy) == network_digest(truth_policy)

    def test_resume_at_a_boundary_is_identical(self, tmp_path):
        truth_report, truth_policy = run_mesh(PLAN)
        with pytest.raises(SimulatedCrash):
            durable_run(PLAN, tmp_path / "run", crash_at_write=40)
        report, policy = resume(tmp_path / "run")
        assert report_fingerprint(report) == report_fingerprint(truth_report)
        assert network_digest(policy) == network_digest(truth_policy)

    def test_resume_mid_rpc_backoff_reuses_attempt_ids(self, tmp_path):
        """Kill the run on the WAL record of a multi-attempt RPC: the
        resume re-walks the seeded retry ladder and reuses the exact
        ``key#attempt`` message ids — never re-drawing a fate."""
        truth_report, truth_policy = run_mesh(PLAN)
        truth_ids = [r.msg_id for r in truth_policy.channel.log]

        _, _ = durable_run(PLAN, tmp_path / "base")
        records, _ = Journal.scan(tmp_path / "base" / "journal.jsonl")
        ladder_writes = [
            (index, record)
            for index, record in enumerate(records, start=1)
            if record.get("type") == "wire"
            and record.get("kind") == "rpc"
            and record.get("attempts", 1) > 1
        ]
        assert ladder_writes, "plan produced no multi-attempt RPC"
        crash_at, torn = ladder_writes[0]

        with pytest.raises(SimulatedCrash):
            durable_run(PLAN, tmp_path / "run", crash_at_write=crash_at)
        report, policy = resume(tmp_path / "run")
        resumed_ids = [r.msg_id for r in policy.channel.log]
        assert resumed_ids == truth_ids
        key = torn["key"]
        ladder = [i for i in truth_ids if i.startswith(f"{key}#")]
        assert len(ladder) >= 2  # the ladder really retried
        assert [
            i for i in resumed_ids if i.startswith(f"{key}#")
        ] == ladder
        assert report_fingerprint(report) == report_fingerprint(truth_report)


class TestPartitionCrashMatrix:
    def test_strided_matrix_all_identical(self, tmp_path):
        """A strided sweep (the CI crash-matrix job runs stride 1):
        every kill point resumes identical, and the hard phases are
        actually covered."""
        result = chaos_partition_crash_matrix(
            tmp_path,
            PLAN,
            boundary_stride=9,
            mid_write=True,
        )
        assert result.cells == 2  # benign + partitioned
        assert result.journal_records > 0
        assert result.crashed_points, "stride skipped every live boundary"
        assert result.mismatches == [], result.summary()
        assert result.covered_mid_partition, result.summary()
        assert result.ok

    def test_mid_rpc_coverage_pinned(self, tmp_path):
        """Aim the stride at a probed multi-attempt RPC record, so the
        matrix provably kills the run mid-retry-ladder (the phase a
        coarse stride may hop over)."""
        durable_run(PLAN, tmp_path / "probe")
        records, _ = Journal.scan(tmp_path / "probe" / "journal.jsonl")
        index = next(
            i
            for i, record in enumerate(records, start=1)
            if record.get("type") == "wire"
            and record.get("kind") == "rpc"
            and record.get("attempts", 1) > 1
        )
        result = chaos_partition_crash_matrix(
            tmp_path / "matrix",
            PLAN,
            durations=(PLAN.partition_duration,),
            boundary_stride=max(1, index - 1),
            mid_write=False,
        )
        assert result.mismatches == [], result.summary()
        assert result.covered_mid_rpc, result.summary()

    def test_checkpoint_save_kills_resume_identically(self, tmp_path):
        """Kills during checkpoint saves: the torn snapshot never
        surfaces, and the resume from the one before it reproduces the
        report and the wire."""
        result = chaos_partition_crash_matrix(
            tmp_path,
            PLAN,
            durations=(PLAN.partition_duration,),
            boundary_stride=10_000,
            mid_write=False,
        )
        saves = [p for p in result.points if p.kind == "checkpoint"]
        assert saves and all(p.crashed for p in saves), result.summary()
        assert all(p.identical for p in saves), result.summary()
        assert all(p.resumed_from.startswith("ckpt-") for p in saves)

    def test_bad_stride_rejected(self, tmp_path):
        """Both wrappers share the loop's check, before any run starts."""
        scenario = volunteer_scenario(5, nodes=3, horizon=10)

        def factory():
            return OpenSystemSimulator(
                RotaAdmission(),
                initial_resources=scenario.initial_resources,
            )

        for stride in (0, -1):
            with pytest.raises(FaultInjectionError, match="boundary_stride"):
                chaos_partition_crash_matrix(
                    tmp_path, PLAN, boundary_stride=stride
                )
            with pytest.raises(FaultInjectionError, match="boundary_stride"):
                chaos_crash_matrix(
                    scenario, factory, tmp_path, boundary_stride=stride
                )
        assert not any(tmp_path.iterdir())

    def test_diverging_durable_run_is_a_typed_error(
        self, tmp_path, monkeypatch
    ):
        """If durability I/O alone changed the run, no kill could be
        judged against it: the matrix refuses with the diverged field."""
        run_mesh = netfaults.run_mesh

        def drifted(plan, **durability):
            report, policy = run_mesh(plan, **durability)
            if durability:
                policy.channel.stats.sent += 1
            return report, policy

        monkeypatch.setattr(netfaults, "run_mesh", drifted)
        with pytest.raises(FaultInjectionError, match="network"):
            chaos_partition_crash_matrix(
                tmp_path, PLAN, durations=(0,), boundary_stride=10_000
            )
