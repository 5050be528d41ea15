"""Unit tests for the durability subsystem: write-ahead journal,
checkpoints, atomic writes, and crash-resume semantics.

The exhaustive kill-anywhere matrix lives in ``test_chaos_recovery.py``;
these tests pin the artifact-level contracts — torn tails tolerated,
prefix corruption fatal, version skew rejected, checksums enforced — and
the two subtle resume properties: pending recovery backoffs fire at the
same instants after a resume, and a journal that disagrees with the
replayed decisions is detected, not overwritten.
"""

from __future__ import annotations

import json
import math
import pickle
from pathlib import Path

import pytest

from repro.baselines import RotaAdmission
from repro.errors import CheckpointError, SimulationError
from repro.faults import (
    FaultPlan,
    PartitionPlan,
    RecoveryPolicy,
    SimulatedCrash,
    crashing_opener,
    faulty_scenario,
    run_mesh,
)
from repro.faults.chaos import diff_fingerprints, report_fingerprint
from repro.system import OpenSystemSimulator, ReservationPolicy
from repro.system.checkpoint import (
    CHECKPOINT_FORMAT_VERSION,
    JOURNAL_FORMAT_VERSION,
    CheckpointStore,
    Journal,
    SimulatorCheckpoint,
    atomic_writer,
    check_journal_header,
    journal_header,
)
from repro.system.events import RecoveryOfferEvent
from repro.workloads import volunteer_scenario

RECORDS = [
    {"type": "event", "kind": "ResourceJoinEvent", "time": 0, "seq": 1},
    {"type": "decision", "label": "j1", "admitted": True},
    {"type": "event", "kind": "ComputationLeaveEvent", "time": 5, "seq": 2},
]


def write_journal(path, records=RECORDS):
    with Journal(path) as journal:
        for record in records:
            journal.append(record)
    return path


# ----------------------------------------------------------------------
# Journal
# ----------------------------------------------------------------------

class TestJournal:
    def test_round_trip_preserves_order(self, tmp_path):
        path = write_journal(tmp_path / "j.jsonl")
        records, valid_end = Journal.scan(path)
        assert records == RECORDS
        assert valid_end == path.stat().st_size

    def test_append_counts(self, tmp_path):
        with Journal(tmp_path / "j.jsonl") as journal:
            assert journal.append({"a": 1}) == 1
            assert journal.append({"a": 2}) == 2
            assert journal.count == 2

    def test_unterminated_tail_dropped(self, tmp_path):
        path = write_journal(tmp_path / "j.jsonl")
        intact = path.stat().st_size
        with open(path, "ab") as handle:
            handle.write(b'{"crc": 123, "data": {"torn":')  # no newline
        records, valid_end = Journal.scan(path)
        assert records == RECORDS
        assert valid_end == intact

    def test_bit_flip_in_final_record_dropped(self, tmp_path):
        path = write_journal(tmp_path / "j.jsonl")
        raw = path.read_bytes()
        lines = raw.rstrip(b"\n").split(b"\n")
        last = lines[-1].replace(b"ComputationLeaveEvent", b"Xomputation")
        path.write_bytes(b"\n".join([*lines[:-1], last]) + b"\n")
        records, _ = Journal.scan(path)
        assert records == RECORDS[:-1]  # tail is the crash's signature

    def test_bit_flip_before_tail_raises(self, tmp_path):
        path = write_journal(tmp_path / "j.jsonl")
        raw = path.read_bytes()
        lines = raw.rstrip(b"\n").split(b"\n")
        lines[0] = lines[0].replace(b"ResourceJoinEvent", b"Xesource")
        path.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(CheckpointError, match="record 1 .*before the tail"):
            Journal.scan(path)

    def test_for_resume_truncates_and_continues(self, tmp_path):
        path = write_journal(tmp_path / "j.jsonl")
        with open(path, "ab") as handle:
            handle.write(b"torn garbage with no newline")
        journal, records = Journal.for_resume(path)
        assert records == RECORDS
        assert journal.count == len(RECORDS)
        journal.append({"type": "event", "kind": "later"})
        journal.close()
        records, _ = Journal.scan(path)
        assert len(records) == len(RECORDS) + 1  # garbage gone, append clean

    # The three "fresh" resume states: the crashed run died before its
    # first append became durable.  None of them is an error — the
    # resumed run starts from zero records and re-appends its header.
    def test_for_resume_nonexistent_journal_is_fresh(self, tmp_path):
        path = tmp_path / "never-written.jsonl"
        journal, records = Journal.for_resume(path)
        assert records == []
        assert journal.count == 0
        journal.append(journal_header({"policy": "rota"}))
        journal.close()
        records, _ = Journal.scan(path)
        assert len(records) == 1  # usable journal, header first

    def test_for_resume_zero_length_journal_is_fresh(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_bytes(b"")
        journal, records = Journal.for_resume(path)
        assert records == []
        assert journal.count == 0
        journal.close()

    def test_for_resume_torn_first_record_is_fresh(self, tmp_path):
        # Death mid-header-append: only torn bytes of record 0 on disk.
        path = tmp_path / "j.jsonl"
        path.write_bytes(b'{"crc": 99, "data": {"type": "journal_hea')
        journal, records = Journal.for_resume(path)
        assert records == []
        assert journal.count == 0
        journal.close()
        assert path.stat().st_size == 0  # torn bytes truncated away

    def test_for_resume_header_only_journal_continues(self, tmp_path):
        header = journal_header({"policy": "rota"})
        path = write_journal(tmp_path / "j.jsonl", records=[header])
        journal, records = Journal.for_resume(path)
        assert records == [header]
        assert journal.count == 1
        journal.append(RECORDS[0])
        journal.close()
        records, _ = Journal.scan(path)
        assert records == [header, RECORDS[0]]

    def test_header_version_gate(self, tmp_path):
        header = journal_header({"policy": "rota"})
        assert header["format_version"] == JOURNAL_FORMAT_VERSION
        check_journal_header(header, "j.jsonl")  # current version passes
        with pytest.raises(CheckpointError, match="newer than supported"):
            check_journal_header({**header, "format_version": 2}, "j.jsonl")
        with pytest.raises(CheckpointError, match="journal_header"):
            check_journal_header({"type": "event"}, "j.jsonl")
        with pytest.raises(CheckpointError, match="format_version"):
            check_journal_header({**header, "format_version": "x"}, "j")


# ----------------------------------------------------------------------
# Checkpoints
# ----------------------------------------------------------------------

def make_checkpoint(step=3):
    payload = pickle.dumps({"state": "something"})
    return SimulatorCheckpoint(
        step=step, journal_records=7, sequence=42, payload=payload
    )


class TestCheckpoint:
    def test_save_load_round_trip(self, tmp_path):
        path = tmp_path / "ckpt.json"
        make_checkpoint().save(path)
        loaded = SimulatorCheckpoint.load(path)
        assert loaded == make_checkpoint()
        assert loaded.restore_state() == {"state": "something"}

    def test_checksum_corruption_detected(self, tmp_path):
        path = tmp_path / "ckpt.json"
        make_checkpoint().save(path)
        envelope = json.loads(path.read_text())
        envelope["payload"] = envelope["payload"][:-8] + "AAAAAAA="
        path.write_text(json.dumps(envelope))
        with pytest.raises(CheckpointError, match="checksum mismatch"):
            SimulatorCheckpoint.load(path)

    def test_future_format_version_rejected(self, tmp_path):
        path = tmp_path / "ckpt.json"
        make_checkpoint().save(path)
        envelope = json.loads(path.read_text())
        envelope["format_version"] = CHECKPOINT_FORMAT_VERSION + 1
        path.write_text(json.dumps(envelope))
        with pytest.raises(CheckpointError, match="newer than supported"):
            SimulatorCheckpoint.load(path)

    @pytest.mark.parametrize(
        "version, kind",
        [(1, "full"), (2, "delta"), (3, "full"), (3, "delta"),
         (4, "full"), (4, "delta")],
    )
    def test_older_format_versions_rejected(self, version, kind):
        """Envelopes of the formats before this one — version-1 full
        snapshots and version-2 deltas, whose traces pickled whole
        transitions, version 3, whose states kept finished actors and
        had no ``open`` section, and version 4, whose admission
        controllers pickled a committed profile beside their schedules —
        are refused with a typed error naming the version."""
        checkpoint = make_checkpoint()
        if kind == "delta":
            checkpoint = SimulatorCheckpoint(
                step=3, journal_records=7, sequence=42,
                payload=checkpoint.payload,
                kind="delta", base_step=2, base_sha256="ab" * 32,
            )
        envelope = json.loads(checkpoint.to_json())
        assert envelope["format_version"] == CHECKPOINT_FORMAT_VERSION == 5
        envelope["format_version"] = version
        with pytest.raises(
            CheckpointError,
            match=f"format_version {version} predates supported 5",
        ):
            SimulatorCheckpoint.from_json(json.dumps(envelope))

    def test_not_a_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_text("definitely not json {")
        with pytest.raises(CheckpointError, match="not a checkpoint"):
            SimulatorCheckpoint.load(path)
        path.write_text('{"magic": "wrong"}')
        with pytest.raises(CheckpointError, match="magic"):
            SimulatorCheckpoint.load(path)

    def test_store_latest_skips_corrupt_newest(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save(make_checkpoint(step=1))
        newest = store.save(make_checkpoint(step=2))
        newest.write_text(newest.read_text()[:40])  # torn somehow
        assert store.latest()[0] == store.path_for(1)


class TestAtomicWriter:
    def test_failure_leaves_target_untouched(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("previous")
        with pytest.raises(RuntimeError):
            with atomic_writer(path) as handle:
                handle.write("half of the new cont")
                raise RuntimeError("crash")
        assert path.read_text() == "previous"
        assert list(tmp_path.iterdir()) == [path]  # temp file cleaned up

    def test_success_replaces(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("previous")
        with atomic_writer(path) as handle:
            handle.write("new")
        assert path.read_text() == "new"


# ----------------------------------------------------------------------
# Crash-resume semantics on a real simulation
# ----------------------------------------------------------------------

def chaos_scenario():
    # Chosen so the run exercises the whole recovery pipeline: one victim
    # re-admitted after backoff, one abandoned after exhausting attempts.
    return faulty_scenario(
        volunteer_scenario(7, nodes=4, horizon=60, session_rate=0.5),
        FaultPlan(
            seed=17, crash_rate=0.04, revocation_rate=0.5,
            straggler_rate=0.04,
        ),
    )


def make_simulator(scenario):
    return OpenSystemSimulator(
        RotaAdmission(),
        initial_resources=scenario.initial_resources,
        allocation_policy=ReservationPolicy(),
        recovery=RecoveryPolicy(max_attempts=6),
    )


class TestResume:
    def test_resume_mid_backoff_is_deterministic(self, tmp_path):
        """A checkpoint taken while a recovery offer is pending in the
        heap must restore it to fire at the same instant: the resumed
        report is field-for-field identical to the uninterrupted run."""
        scenario = chaos_scenario()
        plain = make_simulator(scenario)
        plain.schedule(*scenario.events)
        truth_report = plain.run(scenario.horizon)
        assert truth_report.violations, "scenario must exercise recovery"
        truth = report_fingerprint(truth_report)

        full = make_simulator(scenario)
        full.schedule(*scenario.events)
        full.run(
            scenario.horizon,
            checkpoint_every=1,
            checkpoint_dir=tmp_path,
            journal=tmp_path / "journal.jsonl",
        )

        store = CheckpointStore(tmp_path)
        mid_backoff = [
            path
            for path in sorted(tmp_path.glob("ckpt-*.json"))
            if any(
                isinstance(event, RecoveryOfferEvent)
                # resolve() materializes deltas through their base chain
                for _, _, event in store.resolve(path)[1]["events"]
            )
        ]
        assert mid_backoff, "no checkpoint caught a pending backoff offer"

        for path in mid_backoff:
            resumed = OpenSystemSimulator.resume(
                path, tmp_path / "journal.jsonl"
            )
            fingerprint = report_fingerprint(resumed.resume_run())
            assert fingerprint == truth, (
                f"resume from {path.name} diverged: "
                f"{diff_fingerprints(truth, fingerprint)}"
            )

    def test_resume_resolves_the_newest_checkpoint_once(
        self, tmp_path, monkeypatch
    ):
        """Finding the newest valid checkpoint and restoring it share one
        ``resolve()``, from a directory source and a file source alike,
        and the report names the checkpoint the resume restored."""
        scenario = chaos_scenario()
        plain = make_simulator(scenario)
        plain.schedule(*scenario.events)
        truth = report_fingerprint(plain.run(scenario.horizon))
        simulator = make_simulator(scenario)
        simulator.schedule(*scenario.events)
        simulator.run(
            scenario.horizon,
            checkpoint_every=5,
            checkpoint_dir=tmp_path,
            journal=tmp_path / "journal.jsonl",
        )
        newest = sorted(tmp_path.glob("ckpt-*.json"))[-1]
        resolved = []
        resolve = CheckpointStore.resolve

        def counting(store, path):
            resolved.append(Path(path).name)
            return resolve(store, path)

        monkeypatch.setattr(CheckpointStore, "resolve", counting)
        for source in (tmp_path, newest):
            resolved.clear()
            resumed = OpenSystemSimulator.resume(
                source, tmp_path / "journal.jsonl"
            )
            assert resolved == [newest.name], source
            report = resumed.resume_run()
            assert report.resumed_from == newest.name
            fingerprint = report_fingerprint(report)
            assert fingerprint == truth, diff_fingerprints(truth, fingerprint)

    def test_directory_resume_skips_a_broken_newest_chain(self, tmp_path):
        """The newest delta cannot materialize once its base is gone; a
        directory resume falls back to the next checkpoint that does, and
        the longer journal replay still reaches the uninterrupted run."""
        scenario = chaos_scenario()
        plain = make_simulator(scenario)
        plain.schedule(*scenario.events)
        truth = report_fingerprint(plain.run(scenario.horizon))
        simulator = make_simulator(scenario)
        simulator.schedule(*scenario.events)
        simulator.run(
            scenario.horizon,
            checkpoint_every=5,
            checkpoint_dir=tmp_path,
            journal=tmp_path / "journal.jsonl",
        )
        *_, older, base, newest = sorted(tmp_path.glob("ckpt-*.json"))
        tip = SimulatorCheckpoint.load(newest)
        assert tip.is_delta and tip.base_step == SimulatorCheckpoint.load(
            base
        ).step
        base.unlink()
        report = OpenSystemSimulator.resume(
            tmp_path, tmp_path / "journal.jsonl"
        ).resume_run()
        assert report.resumed_from == older.name
        fingerprint = report_fingerprint(report)
        assert fingerprint == truth, diff_fingerprints(truth, fingerprint)

    def test_directory_of_older_formats_names_the_refusal(self, tmp_path):
        """A directory written by the previous format (version 4, fulls
        and deltas alike) has nothing to resume, and the error says why:
        the newest file and its version."""
        scenario = chaos_scenario()
        simulator = make_simulator(scenario)
        simulator.schedule(*scenario.events)
        simulator.run(
            scenario.horizon, checkpoint_every=5, checkpoint_dir=tmp_path
        )
        paths = sorted(tmp_path.glob("ckpt-*.json"))
        for path in paths:
            envelope = json.loads(path.read_text())
            envelope["format_version"] = 4
            path.write_text(json.dumps(envelope))
        with pytest.raises(CheckpointError) as caught:
            OpenSystemSimulator.resume(tmp_path)
        message = str(caught.value)
        assert "nothing to resume" in message
        assert f"newest {paths[-1].name}:" in message
        assert "format_version 4 predates supported 5" in message

    def test_fresh_run_clears_an_earlier_runs_checkpoints(self, tmp_path):
        """A fresh run in a reused checkpoint directory deletes the earlier
        run's snapshots: killed, it resumes itself, not the earlier run's
        higher-step checkpoint."""
        earlier = PartitionPlan(
            seed=1, horizon=260, children=3, partition_start=40,
            partition_duration=24, link_delay=1, link_loss=0.1,
        )
        run_mesh(
            earlier,
            checkpoint_every=25,
            checkpoint_dir=tmp_path,
            journal=tmp_path / "journal.jsonl",
        )
        plan = PartitionPlan(seed=2, horizon=48)
        truth = report_fingerprint(*run_mesh(plan))
        journal = Journal(
            tmp_path / "journal.jsonl",
            opener=crashing_opener(crash_at_write=60),
            truncate=True,
        )
        with pytest.raises(SimulatedCrash):
            run_mesh(
                plan,
                checkpoint_every=25,
                checkpoint_dir=tmp_path,
                journal=journal,
            )
        journal.close()
        simulator = OpenSystemSimulator.resume(
            tmp_path, tmp_path / "journal.jsonl"
        )
        report = simulator.resume_run()
        assert simulator.admission_policy.plan == plan
        resumed = report_fingerprint(report, simulator.admission_policy)
        assert resumed == truth, diff_fingerprints(truth, resumed)

    def test_tampered_journal_decision_detected(self, tmp_path):
        """Promises are replayed, never re-decided: a journal whose
        pinned decision disagrees with the deterministic replay is an
        error, not something to silently rewrite."""
        scenario = chaos_scenario()
        simulator = make_simulator(scenario)
        simulator.schedule(*scenario.events)
        simulator.run(
            scenario.horizon,
            checkpoint_every=10,
            checkpoint_dir=tmp_path,
            journal=tmp_path / "journal.jsonl",
        )
        records, _ = Journal.scan(tmp_path / "journal.jsonl")
        index, tampered = next(
            (i, dict(r))
            for i, r in enumerate(records)
            if r.get("type") == "decision"
        )
        tampered["admitted"] = not tampered["admitted"]
        records[index] = tampered
        (tmp_path / "journal.jsonl").unlink()
        write_journal(tmp_path / "journal.jsonl", records)

        first = sorted(tmp_path.glob("ckpt-*.json"))[0]
        resumed = OpenSystemSimulator.resume(first, tmp_path / "journal.jsonl")
        with pytest.raises(CheckpointError, match="diverged"):
            resumed.resume_run()

    def test_journal_shorter_than_checkpoint_prefers_checkpoint(self, tmp_path):
        """A valid checkpoint newer than the journal's acknowledged tail
        (the journal was lost or rolled back independently) resumes from
        the checkpoint on a *fresh* journal epoch: the stale tail is
        discarded, nothing is double-replayed, and the finished run is
        field-for-field identical to the uninterrupted one."""
        scenario = chaos_scenario()
        plain = make_simulator(scenario)
        plain.schedule(*scenario.events)
        truth = report_fingerprint(plain.run(scenario.horizon))

        simulator = make_simulator(scenario)
        simulator.schedule(*scenario.events)
        simulator.run(
            scenario.horizon,
            checkpoint_every=5,
            checkpoint_dir=tmp_path,
            journal=tmp_path / "journal.jsonl",
        )
        last = sorted(tmp_path.glob("ckpt-*.json"))[-1]
        records, _ = Journal.scan(tmp_path / "journal.jsonl")
        acknowledged = SimulatorCheckpoint.load(last).journal_records
        kept = records[: acknowledged // 2]
        (tmp_path / "journal.jsonl").unlink()
        write_journal(tmp_path / "journal.jsonl", kept)

        resumed = OpenSystemSimulator.resume(last, tmp_path / "journal.jsonl")
        # Fresh epoch: no stale records survive, none are pinned for replay.
        assert resumed._journal_count == 0
        assert resumed._replay_records == []
        fingerprint = report_fingerprint(resumed.resume_run())
        assert fingerprint == truth, diff_fingerprints(truth, fingerprint)
        # The rewritten journal is the regenerated suffix: header first,
        # nothing from the stale tail.
        fresh, _ = Journal.scan(tmp_path / "journal.jsonl")
        assert fresh and fresh[0]["type"] == "journal_header"
        assert len(fresh) == resumed._journal_count

    def test_torn_journal_tail_surfaces_a_resume_warning(self, tmp_path):
        """A crash mid-append leaves torn bytes on the journal tail.
        Resume truncates and continues (that contract is pinned above on
        the Journal directly); here the *report* surfaces the anomaly:
        a warning names the journal and the byte count, while the
        fingerprint stays identical to the uninterrupted run — warnings
        are observational, never semantic."""
        scenario = chaos_scenario()
        plain = make_simulator(scenario)
        plain.schedule(*scenario.events)
        truth_report = plain.run(scenario.horizon)
        assert truth_report.warnings == []
        truth = report_fingerprint(truth_report)

        simulator = make_simulator(scenario)
        simulator.schedule(*scenario.events)
        simulator.run(
            scenario.horizon,
            checkpoint_every=10,
            checkpoint_dir=tmp_path,
            journal=tmp_path / "journal.jsonl",
        )
        with open(tmp_path / "journal.jsonl", "ab") as handle:
            handle.write(b'{"crc": 99, "data": {"torn')  # death mid-append
        first = sorted(tmp_path.glob("ckpt-*.json"))[0]
        resumed = OpenSystemSimulator.resume(first, tmp_path / "journal.jsonl")
        report = resumed.resume_run()
        assert len(report.warnings) == 1
        assert "torn tail" in report.warnings[0]
        assert "journal.jsonl" in report.warnings[0]
        assert "26 bytes" in report.warnings[0]  # len of the torn write
        fingerprint = report_fingerprint(report)
        assert fingerprint == truth, diff_fingerprints(truth, fingerprint)


# ----------------------------------------------------------------------
# Bad durability settings fail at the boundary
# ----------------------------------------------------------------------

BAD_COUNTS = [2.5, True, False, "3", math.nan, math.inf, -1, None]
#: not a path where ``None`` means "no such artifact"
NOT_PATHS = [5, []]
#: not a path where one is required
BAD_PATHS = [None] + NOT_PATHS


class TestDurabilityBoundary:
    @pytest.mark.parametrize("checkpoint_every", BAD_COUNTS)
    def test_run_rejects_bad_checkpoint_every(
        self, tmp_path, checkpoint_every
    ):
        scenario = chaos_scenario()
        sim = make_simulator(scenario)
        sim.schedule(*scenario.events)
        with pytest.raises(SimulationError, match="checkpoint_every") as info:
            sim.run(
                scenario.horizon,
                checkpoint_every=checkpoint_every,
                checkpoint_dir=tmp_path,
            )
        assert info.traceback[-1].name == "run"
        assert not list(tmp_path.iterdir()), "nothing may be written"

    @pytest.mark.parametrize(
        "horizon", [math.inf, -math.inf, math.nan, True, False, "60", None]
    )
    def test_run_rejects_bad_horizon(self, tmp_path, horizon):
        scenario = chaos_scenario()
        sim = make_simulator(scenario)
        sim.schedule(*scenario.events)
        with pytest.raises(SimulationError, match="horizon") as info:
            sim.run(
                horizon,
                checkpoint_every=5,
                checkpoint_dir=tmp_path,
                journal=tmp_path / "journal.jsonl",
            )
        assert info.traceback[-1].name == "run"
        assert not list(tmp_path.iterdir()), "nothing may be written"

    @pytest.mark.parametrize("location", BAD_PATHS)
    def test_store_and_journal_reject_non_paths(self, location):
        with pytest.raises(CheckpointError, match="must be a path"):
            CheckpointStore(location)
        with pytest.raises(CheckpointError, match="must be a path"):
            Journal(location)

    @pytest.mark.parametrize("location", NOT_PATHS)
    @pytest.mark.parametrize("argument", ["journal", "checkpoint_dir"])
    def test_run_rejects_non_path_durability(
        self, tmp_path, argument, location
    ):
        scenario = chaos_scenario()
        sim = make_simulator(scenario)
        sim.schedule(*scenario.events)
        durability = {
            "journal": tmp_path / "journal.jsonl",
            "checkpoint_dir": tmp_path,
            argument: location,
        }
        with pytest.raises(CheckpointError, match="must be a path"):
            sim.run(scenario.horizon, checkpoint_every=5, **durability)
        assert not list(tmp_path.iterdir()), "nothing may be written"

    @pytest.mark.parametrize("location", NOT_PATHS)
    @pytest.mark.parametrize("argument", ["journal", "checkpoint_dir"])
    def test_run_mesh_rejects_non_path_durability(self, argument, location):
        with pytest.raises(CheckpointError, match="must be a path"):
            run_mesh(PartitionPlan(), **{argument: location})

    @pytest.mark.parametrize(
        "argument, location",
        [("checkpoint_path", bad) for bad in BAD_PATHS]
        + [("journal_path", bad) for bad in NOT_PATHS],
    )
    def test_resume_rejects_non_paths(self, tmp_path, argument, location):
        paths = {
            "checkpoint_path": tmp_path / "ckpt-00000000.json",
            "journal_path": tmp_path / "journal.jsonl",
            argument: location,
        }
        with pytest.raises(CheckpointError, match="must be a path"):
            OpenSystemSimulator.resume(**paths)
        assert not list(tmp_path.iterdir()), "nothing may be written"
