"""Incremental (delta) checkpoints: encoding, chain resolution, and the
equivalence that matters — restoring through a delta chain yields the
same simulator, field for field, as restoring a full snapshot.

``test_checkpoint.py`` pins the artifact-level durability contracts;
this module pins the delta layer on top of them:

* :class:`DeltaSnapshotter` cadence (first full, :data:`FULL_INTERVAL`
  deltas, reseed) and base-chain references,
* the per-section diff rules: the event heap and the records ride a
  delta keyed (only added/removed events, only new or changed records),
  an unchanged ``state`` rides not at all, and the trace suffix holds
  no ``SystemState`` (a trace entry is a start time and a label),
* :meth:`CheckpointStore.resolve` chain validation — a delta whose base
  is missing or digest-mismatched is rejected and :meth:`latest` falls
  back to an older valid snapshot, as it does for a payload that is not
  a bundle of parts (and names the newest file's refusal when nothing
  validates),
* end-to-end: every checkpoint a real chaotic run writes, full or
  delta, resumes to a report identical to the uninterrupted run, and a
  chaotic or mesh run's delta chain materializes the same value-semantics
  sections — ``network`` with its channel log included — as a full
  snapshot of the same step,
* plain-data sections: ``flagged`` pickles to the same bytes whatever
  order it was filled in.
"""

from __future__ import annotations

import hashlib
import pickle

import pytest

from repro.baselines import RotaAdmission
from repro.errors import CheckpointError
from repro.faults import (
    FaultPlan,
    PartitionPlan,
    RecoveryPolicy,
    faulty_scenario,
    run_mesh,
)
from repro.faults.chaos import diff_fingerprints, report_fingerprint
from repro.system import OpenSystemSimulator, ReservationPolicy
from repro.system import simulator as simulator_module
from repro.system.checkpoint import (
    FULL_INTERVAL,
    CheckpointStore,
    DeltaSnapshotter,
    SimulatorCheckpoint,
)
from repro.intervals import Interval
from repro.logic.state import initial_state
from repro.resources import ResourceSet
from repro.system.events import RecoveryOfferEvent
from repro.system.simulator import ComputationRecord
from repro.system.tracing import SimulationTrace
from repro.workloads import volunteer_scenario


# ----------------------------------------------------------------------
# DeltaSnapshotter unit behavior
# ----------------------------------------------------------------------

def _sections(trace, *, counter=0, table=None):
    return {
        "trace": trace,
        "counter": counter,
        "table": table if table is not None else {},
    }


def _mesh_sections(trace, log, *, rpc_seq=0):
    """Sections shaped like a mesh run's: the channel log lives in the
    network section, next to state that is diffed whole."""
    return {
        "trace": trace,
        "network": {
            "channel": {"log": tuple(log), "pending": (), "pending_seq": 0},
            "rpc_seq": rpc_seq,
        },
    }


class TestDeltaSnapshotter:
    def test_cadence_first_full_then_deltas_then_reseed(self):
        snapper = DeltaSnapshotter()
        trace = SimulationTrace()
        kinds = []
        for step in range(FULL_INTERVAL + 2):
            trace.note(step, f"tick {step}")
            ckpt = snapper.encode(
                _sections(trace), step=step, journal_records=step, sequence=step
            )
            kinds.append(ckpt.kind)
        assert kinds == ["full"] + ["delta"] * FULL_INTERVAL + ["full"]

    def test_delta_base_references_chain(self):
        snapper = DeltaSnapshotter()
        trace = SimulationTrace()
        previous = snapper.encode(
            _sections(trace), step=0, journal_records=0, sequence=0
        )
        for step in (1, 2, 3):
            trace.note(step, "tick")
            ckpt = snapper.encode(
                _sections(trace), step=step, journal_records=step, sequence=step
            )
            assert ckpt.is_delta
            assert ckpt.base_step == previous.step
            assert ckpt.base_sha256 == hashlib.sha256(
                previous.payload
            ).hexdigest()
            previous = ckpt

    def test_unchanged_sections_are_omitted_from_deltas(self):
        snapper = DeltaSnapshotter()
        trace = SimulationTrace()
        table = {"seen": 1}
        snapper.encode(
            _sections(trace, table=table), step=0, journal_records=0, sequence=0
        )
        trace.note(1, "tick")
        delta = snapper.encode(
            _sections(trace, table=table), step=1, journal_records=1, sequence=1
        )
        parts = pickle.loads(delta.payload)["parts"]
        assert set(parts) == {"trace"}  # only the trace moved
        assert len(parts["trace"]["suffix"][1]) == 1
        table["seen"] = 2
        trace.note(2, "tock")
        delta2 = snapper.encode(
            _sections(trace, table=table, counter=9),
            step=2, journal_records=2, sequence=2,
        )
        changed = set(pickle.loads(delta2.payload)["parts"])
        assert changed == {"trace", "table", "counter"}

    def test_trace_shrink_forces_full(self):
        snapper = DeltaSnapshotter()
        trace = SimulationTrace()
        trace.note(0, "tick")
        snapper.encode(_sections(trace), step=0, journal_records=0, sequence=0)
        fresh = SimulationTrace()  # a new run reusing the snapshotter
        ckpt = snapper.encode(
            _sections(fresh), step=1, journal_records=0, sequence=0
        )
        assert ckpt.kind == "full"

    def test_delta_carries_only_the_appended_wire_records(self):
        snapper = DeltaSnapshotter()
        trace = SimulationTrace()
        log = [f"wire-{i}" for i in range(3)]
        snapper.encode(
            _mesh_sections(trace, log), step=0, journal_records=0, sequence=0
        )
        log += ["wire-3", "wire-4"]
        delta = snapper.encode(
            _mesh_sections(trace, log, rpc_seq=1),
            step=1, journal_records=1, sequence=1,
        )
        part = pickle.loads(delta.payload)["parts"]["network"]
        assert part["base"] == 3
        assert part["suffix"] == ("wire-3", "wire-4")
        # The rest of the section changed, so it rides the delta — but
        # without the log it already carries as a suffix.
        network = pickle.loads(part["section"])
        assert network["rpc_seq"] == 1
        assert network["channel"]["log"] == ()

    def test_quiet_wire_costs_nothing_in_a_delta(self):
        snapper = DeltaSnapshotter()
        trace = SimulationTrace()
        log = ["wire-0"]
        snapper.encode(
            _mesh_sections(trace, log), step=0, journal_records=0, sequence=0
        )
        trace.note(1, "tick")
        parts = pickle.loads(snapper.encode(
            _mesh_sections(trace, log), step=1, journal_records=1, sequence=1
        ).payload)["parts"]
        assert set(parts) == {"trace"}

    def test_wire_log_shrink_forces_full(self):
        snapper = DeltaSnapshotter()
        trace = SimulationTrace()
        snapper.encode(
            _mesh_sections(trace, ["wire-0", "wire-1"]),
            step=0, journal_records=0, sequence=0,
        )
        ckpt = snapper.encode(
            _mesh_sections(trace, ["wire-0"]),
            step=1, journal_records=1, sequence=1,
        )
        assert ckpt.kind == "full"

    def test_network_section_appearing_forces_full(self):
        snapper = DeltaSnapshotter()
        trace = SimulationTrace()
        snapper.encode(_sections(trace), step=0, journal_records=0, sequence=0)
        ckpt = snapper.encode(
            _mesh_sections(trace, ["wire-0"]),
            step=1, journal_records=1, sequence=1,
        )
        assert ckpt.kind == "full"

    def test_events_part_is_keyed_by_seq(self):
        snapper = DeltaSnapshotter()
        trace = SimulationTrace()
        events = [(1, 1, "e1"), (2, 2, "e2"), (4, 3, "e3")]
        snapper.encode(
            {"trace": trace, "events": list(events)},
            step=0, journal_records=0, sequence=0,
        )
        events = [events[1], (3, 7, "offer"), events[2]]  # popped e1
        parts = pickle.loads(snapper.encode(
            {"trace": trace, "events": events},
            step=1, journal_records=1, sequence=1,
        ).payload)["parts"]
        assert parts["events"] == {"removed": [1], "added": [(3, 7, "offer")]}
        unchanged = pickle.loads(snapper.encode(
            {"trace": trace, "events": list(events)},
            step=2, journal_records=2, sequence=2,
        ).payload)["parts"]
        assert "events" not in unchanged

    def test_duplicate_event_seqs_force_full(self):
        """The same event scheduled twice queues two entries under one
        seq; a keyed part could not tell them apart."""
        snapper = DeltaSnapshotter()
        trace = SimulationTrace()
        snapper.encode(
            {"trace": trace, "events": [(1, 1, "e1")]},
            step=0, journal_records=0, sequence=0,
        )
        ckpt = snapper.encode(
            {"trace": trace, "events": [(1, 1, "e1"), (1, 1, "e1")]},
            step=1, journal_records=1, sequence=1,
        )
        assert ckpt.kind == "full"

    def test_only_new_or_changed_records_ride(self, tmp_path):
        store = CheckpointStore(tmp_path)
        snapper = DeltaSnapshotter()
        trace = SimulationTrace()
        records = {
            label: ComputationRecord(label, 0, Interval(0, 10), admitted=True)
            for label in ("a", "b", "c")
        }

        def save(step):
            checkpoint = snapper.encode(
                {"trace": trace, "records": records},
                step=step, journal_records=step, sequence=step,
            )
            store.save(checkpoint)
            return checkpoint

        save(0)
        records["a"].completed = True
        records["d"] = ComputationRecord("d", 1, Interval(1, 9))
        parts = pickle.loads(save(1).payload)["parts"]
        assert list(parts["records"]) == ["a", "d"]
        # A terminal record mutated in place still rides the next delta.
        records["a"].recovery_attempts += 1
        records["a"].salvaged = 1.5
        parts = pickle.loads(save(2).payload)["parts"]
        assert list(parts["records"]) == ["a"]
        assert parts["records"]["a"].salvaged == 1.5
        assert "records" not in pickle.loads(save(3).payload)["parts"]
        tip, state = store.resolve(store.path_for(3))
        assert tip.is_delta
        assert list(state["records"]) == ["a", "b", "c", "d"]
        assert state["records"] == records
        del records["b"]  # records are never dropped: a shrink is a full
        assert save(4).kind == "full"

    def test_unchanged_state_is_absent_from_the_delta(self):
        snapper = DeltaSnapshotter()
        trace = SimulationTrace()
        state = initial_state(ResourceSet.empty(), 0)
        snapper.encode(
            {"trace": trace, "state": state},
            step=0, journal_records=0, sequence=0,
        )
        trace.note(1, "tick")
        parts = pickle.loads(snapper.encode(
            {"trace": trace, "state": state},
            step=1, journal_records=1, sequence=1,
        ).payload)["parts"]
        assert set(parts) == {"trace"}
        later = initial_state(ResourceSet.empty(), 1)
        parts = pickle.loads(snapper.encode(
            {"trace": trace, "state": later},
            step=2, journal_records=2, sequence=2,
        ).payload)["parts"]
        assert parts["state"] == later

    def test_delta_envelope_roundtrips(self):
        snapper = DeltaSnapshotter()
        trace = SimulationTrace()
        snapper.encode(_sections(trace), step=0, journal_records=0, sequence=0)
        trace.note(1, "tick")
        delta = snapper.encode(
            _sections(trace), step=5, journal_records=7, sequence=11
        )
        clone = SimulatorCheckpoint.from_json(delta.to_json())
        assert clone == delta
        with pytest.raises(CheckpointError, match="standalone"):
            clone.restore_state()


# ----------------------------------------------------------------------
# Chain resolution in the store
# ----------------------------------------------------------------------

def _write_chain(tmp_path, ticks=4):
    store = CheckpointStore(tmp_path)
    snapper = DeltaSnapshotter()
    trace = SimulationTrace()
    table = {}
    checkpoints = []
    for step in range(ticks):
        trace.note(step, f"tick {step}")
        table[f"k{step}"] = step
        ckpt = snapper.encode(
            {"trace": trace, "counter": step * 10, "table": table},
            step=step, journal_records=step, sequence=step,
        )
        store.save(ckpt)
        checkpoints.append(ckpt)
    return store, checkpoints


class TestResolve:
    def test_delta_chain_materializes_full_state(self, tmp_path):
        store, checkpoints = _write_chain(tmp_path, ticks=4)
        tip, state = store.resolve(store.path_for(3))
        assert tip.is_delta and tip.step == 3
        assert state["counter"] == 30
        assert state["table"] == {"k0": 0, "k1": 1, "k2": 2, "k3": 3}
        assert type(state["table"]) is dict
        assert [note.message for note in state["trace"].notes] == [
            f"tick {s}" for s in range(4)
        ]

    def test_every_link_resolves_not_just_the_tip(self, tmp_path):
        store, _ = _write_chain(tmp_path, ticks=5)
        for step in range(5):
            _, state = store.resolve(store.path_for(step))
            assert state["counter"] == step * 10
            assert len(state["trace"].notes) == step + 1

    def test_missing_base_rejects_and_latest_falls_back(self, tmp_path):
        reseed = FULL_INTERVAL + 1
        store, checkpoints = _write_chain(tmp_path, ticks=reseed + 1)
        # steps: 0 full, 1..FULL_INTERVAL delta, then a full reseed, so
        # break the 0-full and the delta chain collapses while the
        # reseed stands alone.
        assert [c.kind for c in checkpoints] == (
            ["full"] + ["delta"] * FULL_INTERVAL + ["full"]
        )
        store.path_for(reseed).unlink()  # drop the newest full
        assert store.latest()[0] == store.path_for(reseed - 1)
        store.path_for(0).unlink()  # now the whole delta chain is orphaned
        with pytest.raises(CheckpointError, match="cannot read"):
            store.resolve(store.path_for(reseed - 1))
        newest = store.path_for(reseed - 1).name
        with pytest.raises(
            CheckpointError, match=f"nothing to resume \\(newest {newest}: "
        ):
            store.latest()

    def test_base_digest_mismatch_rejects(self, tmp_path):
        store, checkpoints = _write_chain(tmp_path, ticks=2)
        # Replace the base with a *valid* checkpoint of different content
        # at the same step: file-level checksums pass, the chain digest
        # must not.
        impostor = SimulatorCheckpoint(
            step=0, journal_records=0, sequence=0,
            payload=pickle.dumps({"trace": SimulationTrace(), "counter": -1,
                                  "table": {}}),
        )
        store.save(impostor)
        with pytest.raises(CheckpointError, match="broken chain"):
            store.resolve(store.path_for(1))
        assert store.latest()[0] == store.path_for(0)

    def test_trace_length_mismatch_rejects(self, tmp_path):
        snapper = DeltaSnapshotter()
        store = CheckpointStore(tmp_path)
        trace = SimulationTrace()
        trace.note(0, "tick")
        store.save(snapper.encode(
            {"trace": trace}, step=0, journal_records=0, sequence=0
        ))
        trace.note(1, "tock")
        delta = snapper.encode(
            {"trace": trace}, step=1, journal_records=1, sequence=1
        )
        # Corrupt the recorded base lengths: materialization must notice.
        bundle = pickle.loads(delta.payload)
        bundle["parts"]["trace"]["base"] = (0, 5, 0, 0)
        forged = SimulatorCheckpoint(
            step=1, journal_records=1, sequence=1,
            payload=pickle.dumps(bundle),
            kind="delta", base_step=0,
            base_sha256=delta.base_sha256,
        )
        store.save(forged)
        with pytest.raises(CheckpointError, match="append-only lengths"):
            store.resolve(store.path_for(1))


    def test_pre_change_bundle_shape_does_not_decode(self, tmp_path):
        """A delta in the bundle shape that predates per-section rules
        (pickled blobs under ``sections``, suffixes under
        ``append_only``) is rejected, and :meth:`latest` falls back to
        the newest full."""
        store = CheckpointStore(tmp_path)
        trace = SimulationTrace()
        full = DeltaSnapshotter().encode(
            {"trace": trace, "counter": 0},
            step=0, journal_records=0, sequence=0,
        )
        store.save(full)
        trace.note(1, "tick")
        legacy = {
            "sections": {"counter": pickle.dumps(1)},
            "append_only": {
                "base": (0, 0, 0, 0),
                "suffix": ([], list(trace.notes), [], []),
            },
        }
        store.save(SimulatorCheckpoint(
            step=1, journal_records=1, sequence=1,
            payload=pickle.dumps(legacy),
            kind="delta", base_step=0,
            base_sha256=hashlib.sha256(full.payload).hexdigest(),
        ))
        with pytest.raises(CheckpointError, match="does not decode"):
            store.resolve(store.path_for(1))
        assert store.latest()[0] == store.path_for(0)

    def test_mesh_chain_extends_the_wire_log(self, tmp_path):
        snapper = DeltaSnapshotter()
        store = CheckpointStore(tmp_path)
        trace = SimulationTrace()
        log = []
        for step in range(4):
            log.append(f"wire-{step}")
            store.save(snapper.encode(
                _mesh_sections(trace, log, rpc_seq=step),
                step=step, journal_records=step, sequence=step,
            ))
        tip, state = store.resolve(store.path_for(3))
        assert tip.is_delta
        assert state["network"] == _mesh_sections(trace, log, rpc_seq=3)[
            "network"
        ]

    def test_wire_log_length_mismatch_rejects(self, tmp_path):
        snapper = DeltaSnapshotter()
        store = CheckpointStore(tmp_path)
        trace = SimulationTrace()
        store.save(snapper.encode(
            _mesh_sections(trace, ["wire-0"]),
            step=0, journal_records=0, sequence=0,
        ))
        delta = snapper.encode(
            _mesh_sections(trace, ["wire-0", "wire-1"]),
            step=1, journal_records=1, sequence=1,
        )
        # Claim a longer base log than the full snapshot holds.
        bundle = pickle.loads(delta.payload)
        assert bundle["parts"]["network"]["base"] == 1
        bundle["parts"]["network"]["base"] = 2
        forged = SimulatorCheckpoint(
            step=1, journal_records=1, sequence=1,
            payload=pickle.dumps(bundle),
            kind="delta", base_step=0,
            base_sha256=delta.base_sha256,
        )
        store.save(forged)
        with pytest.raises(CheckpointError, match="append-only lengths"):
            store.resolve(store.path_for(1))
        assert store.latest()[0] == store.path_for(0)


# ----------------------------------------------------------------------
# End-to-end equivalence on a real chaotic run
# ----------------------------------------------------------------------

def chaos_scenario():
    return faulty_scenario(
        volunteer_scenario(7, nodes=4, horizon=60, session_rate=0.5),
        FaultPlan(
            seed=17, crash_rate=0.04, revocation_rate=0.5,
            straggler_rate=0.04,
        ),
    )


#: A small lossy, delayed, jittery mesh with a partition: the wire log
#: grows between most checkpoints.
MESH_PLAN = PartitionPlan(
    seed=3,
    horizon=30,
    partition_start=10,
    partition_duration=8,
    link_delay=1,
    link_jitter=2,
    link_loss=0.15,
)


def make_simulator(scenario):
    return OpenSystemSimulator(
        RotaAdmission(),
        initial_resources=scenario.initial_resources,
        allocation_policy=ReservationPolicy(),
        recovery=RecoveryPolicy(max_attempts=6),
    )


#: Sections with value semantics, compared directly between a delta-chain
#: and a full restore; policy objects don't define __eq__, so their
#: equivalence is covered by the resume-and-finish fingerprints.
VALUE_SECTIONS = (
    "records", "offered", "trace", "events", "victims",
    "flagged", "open", "horizon", "dt",
    "invariant_interval", "checkpoint_every", "state",
)


class _AllFullSnapshotter(DeltaSnapshotter):
    """Every snapshot full — the pre-delta behavior, for comparison."""

    def encode(self, sections, *, step, journal_records, sequence):
        return self._encode_full(
            sections,
            step=step, journal_records=journal_records, sequence=sequence,
        )


@pytest.fixture(scope="module")
def chaos_chain(tmp_path_factory):
    """The store and checkpoint paths of a chaotic run checkpointed every
    slice (so recovery offers land between snapshots)."""
    directory = tmp_path_factory.mktemp("chaos-chain")
    scenario = chaos_scenario()
    sim = make_simulator(scenario)
    sim.schedule(*scenario.events)
    sim.run(scenario.horizon, checkpoint_every=1, checkpoint_dir=directory)
    return CheckpointStore(directory), sorted(directory.glob("ckpt-*.json"))


def delta_steps(store, paths):
    """``(previous state, delta parts, state)`` for every delta in the
    chain, each state materialized through the store."""
    previous = None
    for path in paths:
        tip, state = store.resolve(path)
        if tip.is_delta:
            yield previous, pickle.loads(tip.payload)["parts"], state
        previous = state


class TestPartsOnARealRun:
    def test_events_part_holds_only_added_entries_and_removed_seqs(
        self, chaos_chain
    ):
        offered_recovery = False
        for previous, parts, state in delta_steps(*chaos_chain):
            before = {entry[1] for entry in previous["events"]}
            after = {entry[1]: entry for entry in state["events"]}
            part = parts.get("events", {"removed": [], "added": []})
            assert sorted(part["removed"]) == sorted(before - set(after))
            assert part["added"] == [
                entry for seq, entry in sorted(after.items())
                if seq not in before
            ]
            offered_recovery = offered_recovery or any(
                isinstance(entry[2], RecoveryOfferEvent)
                for entry in part["added"]
            )
        assert offered_recovery, "no recovery offer was pushed mid-run"

    def test_only_new_or_changed_records_ride(self, chaos_chain):
        skipped_some = False
        for previous, parts, state in delta_steps(*chaos_chain):
            old = previous["records"]
            moved = [
                label for label, record in state["records"].items()
                if label not in old or vars(record) != vars(old[label])
            ]
            assert list(parts.get("records", {})) == moved
            skipped_some = skipped_some or len(moved) < len(old)
        assert skipped_some, "every delta re-sent every record"

    def test_trace_part_pickles_no_system_state(self, chaos_chain):
        """A trace entry is a slice's start time and label: the trace
        part of every delta carries no state, however the state moved."""
        deltas = 0
        for _, parts, _ in delta_steps(*chaos_chain):
            assert parts["trace"]["suffix"][0], "a slice ran since the base"
            blob = pickle.dumps(parts["trace"], pickle.HIGHEST_PROTOCOL)
            assert b"SystemState" not in blob
            deltas += 1
        assert deltas


class TestEndToEndEquivalence:
    def test_resume_from_every_checkpoint_kind(self, tmp_path):
        """A chaotic run checkpointed every slice writes a mixed
        full/delta chain; resuming from *each* file — not just fulls —
        finishes with a report identical to the uninterrupted run."""
        scenario = chaos_scenario()
        plain = make_simulator(scenario)
        plain.schedule(*scenario.events)
        truth = report_fingerprint(plain.run(scenario.horizon))

        pointdir = tmp_path / "ckpt"
        journal = tmp_path / "journal.jsonl"
        journaled = make_simulator(scenario)
        journaled.schedule(*scenario.events)
        journaled.run(
            scenario.horizon,
            checkpoint_every=1,
            checkpoint_dir=pointdir,
            journal=journal,
        )
        paths = sorted(pointdir.glob("ckpt-*.json"))
        kinds = {SimulatorCheckpoint.load(p).kind for p in paths}
        assert kinds == {"full", "delta"}, "run must exercise both kinds"

        for path in paths:
            resumed = OpenSystemSimulator.resume(path, journal)
            fingerprint = report_fingerprint(resumed.resume_run())
            assert fingerprint == truth, (
                f"resume from {path.name} "
                f"({SimulatorCheckpoint.load(path).kind}) diverged: "
                f"{diff_fingerprints(truth, fingerprint)}"
            )

    def test_delta_chain_restore_equals_full_snapshot_restore(
        self, tmp_path, monkeypatch
    ):
        """The same run snapshotted twice — once incrementally, once with
        every checkpoint full — materializes identical section values at
        every step."""
        scenario = chaos_scenario()

        delta_dir = tmp_path / "delta"
        sim = make_simulator(scenario)
        sim.schedule(*scenario.events)
        sim.run(scenario.horizon, checkpoint_every=1, checkpoint_dir=delta_dir)

        full_dir = tmp_path / "full"
        monkeypatch.setattr(
            simulator_module, "DeltaSnapshotter", _AllFullSnapshotter
        )
        sim = make_simulator(scenario)
        sim.schedule(*scenario.events)
        sim.run(scenario.horizon, checkpoint_every=1, checkpoint_dir=full_dir)

        delta_store = CheckpointStore(delta_dir)
        full_store = CheckpointStore(full_dir)
        delta_paths = sorted(delta_dir.glob("ckpt-*.json"))
        full_paths = sorted(full_dir.glob("ckpt-*.json"))
        assert [p.name for p in delta_paths] == [p.name for p in full_paths]
        assert any(
            SimulatorCheckpoint.load(p).is_delta for p in delta_paths
        )
        assert all(
            not SimulatorCheckpoint.load(p).is_delta for p in full_paths
        )

        for delta_path, full_path in zip(delta_paths, full_paths):
            tip, via_chain = delta_store.resolve(delta_path)
            _, via_full = full_store.resolve(full_path)
            for name in VALUE_SECTIONS:
                assert via_chain[name] == via_full[name], (
                    f"{delta_path.name} ({tip.kind}): section {name!r} "
                    "diverges between delta-chain and full restore"
                )

    def test_mesh_delta_chain_network_equals_full_snapshot(
        self, tmp_path, monkeypatch
    ):
        """A lossy, partitioned mesh run snapshotted every slice: at every
        step, the delta chain materializes the same ``network`` section —
        channel log, in-flight queue, stats, lease clocks — and the same
        value-semantics sections (records, events, state, trace, tallies)
        as a full snapshot taken at that step."""
        delta_dir = tmp_path / "delta"
        run_mesh(MESH_PLAN, checkpoint_every=1, checkpoint_dir=delta_dir)

        full_dir = tmp_path / "full"
        monkeypatch.setattr(
            simulator_module, "DeltaSnapshotter", _AllFullSnapshotter
        )
        run_mesh(MESH_PLAN, checkpoint_every=1, checkpoint_dir=full_dir)

        delta_store = CheckpointStore(delta_dir)
        full_store = CheckpointStore(full_dir)
        delta_paths = sorted(delta_dir.glob("ckpt-*.json"))
        assert [p.name for p in delta_paths] == [
            p.name for p in sorted(full_dir.glob("ckpt-*.json"))
        ]
        carried_wire = False
        for path in delta_paths:
            tip, via_chain = delta_store.resolve(path)
            _, via_full = full_store.resolve(full_dir / path.name)
            for name in VALUE_SECTIONS + ("network",):
                assert via_chain[name] == via_full[name], (
                    f"{path.name} ({tip.kind}): section {name!r} diverges "
                    "between delta-chain and full restore"
                )
            if tip.is_delta:
                part = pickle.loads(tip.payload)["parts"].get("network")
                carried_wire = carried_wire or bool(part and part["suffix"])
        assert carried_wire, "no delta carried wire records"


# ----------------------------------------------------------------------
# Plain-data sections
# ----------------------------------------------------------------------

class TestPlainSections:
    def test_flagged_section_bytes_ignore_fill_order(self):
        labels = [f"j{i}" for i in range(64)]
        blobs = []
        for order in (labels, labels[::-1]):
            sim = OpenSystemSimulator(RotaAdmission())
            for label in order:
                sim._flagged.add(label)
            section = sim._snapshot_sections()["flagged"]
            assert section == sorted(labels)
            blobs.append(pickle.dumps(section, pickle.HIGHEST_PROTOCOL))
        assert blobs[0] == blobs[1]
