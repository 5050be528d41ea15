"""Crash-consistent durability: checkpoints and write-ahead journaling.

The simulator keeps every promise, violation, and recovery record in
memory; a process crash used to forfeit all of them.  This module gives a
run two durable artifacts that together make any instant survivable:

* a **checkpoint** (:class:`SimulatorCheckpoint`) — a versioned,
  checksummed snapshot of the full simulator state (``rho``, the
  computation records and the index of the open ones, pending
  recoveries and their backoff schedules, the event heap, trace
  counters, the admission/allocation policy state, and the simulator's
  own event-sequence counter), written atomically so a crash mid-write
  can never surface a half-snapshot;
* a **write-ahead journal** (:class:`Journal`) — every applied event and
  admission decision appended as a CRC-tagged JSONL record *before* it
  takes effect (one JSON encode per record).  Recovery replays up to
  the last complete record and discards a torn tail; corruption anywhere
  earlier is an error, never a silent truncation.

The replay contract: execution from a checkpoint is deterministic, so a
resumed run regenerates the journal suffix record-for-record.  Each
regenerated record is *verified* against the journaled one — an admission
promise recorded before the crash is replayed, never re-decided; any
divergence raises :class:`~repro.errors.CheckpointError` instead of
silently rewriting history.

**Incremental checkpoints.**  Simulator state only moves forward: the
trace's four lists and, on a mesh, the channel log only grow, the event
heap only drains (plus the odd recovery offer), and a finished arrival's
record rarely changes.  A :class:`DeltaSnapshotter` therefore emits most
checkpoints as **deltas** against the immediately preceding snapshot.
Every section is plain data, diffed by the one rule its name selects
(:meth:`DeltaSnapshotter.rule_for`): append-only suffixes for the trace
and the channel log; the ``events`` section (a sorted list, hence a
valid heap) keyed by ``seq``; ``records`` keyed by label, a record
riding only when new or changed; the frozen ``state`` by identity, whole
when it moved (the trace holds no states, so it shares nothing with the
trace suffix); pickled bytes for the rest.  Full snapshots and deltas
share one envelope, :data:`CHECKPOINT_FORMAT_VERSION`; a delta's also
names its base (``base_step`` + ``base_sha256``).  Older envelopes are
refused with a :class:`~repro.errors.CheckpointError` naming their
version.  After every :data:`FULL_INTERVAL` deltas — and always
immediately after a resume, since the delta cache dies with the process
— a full snapshot reseeds the chain.  :meth:`CheckpointStore.latest`
validates the whole chain before nominating a file: a delta whose base
is missing, corrupt, or checksum-mismatched is skipped in favour of an
older snapshot.

**The wire is derivable state.**  Channel-aware policies (the mesh of
:mod:`repro.faults.netfaults`) add one more section,
:attr:`DeltaSnapshotter.NETWORK_SECTION`: because every message fate is
a stateless SHA-256 draw over ``(seed, link, msg_id)``, the entire wire
is reconstructed from the in-flight queue, the lease table's clocks,
and the RPC attempt counters — no fate is ever re-drawn on resume, and
lease grants/renewals/expiries and RPC verdicts ride the journal as
WAL records so replay re-verifies them like any admission decision.
The section's channel log is append-only like the trace, so a delta
carries only the wire records sent since its base.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import pickle
import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from types import MappingProxyType
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
    Type,
    Union,
)

from repro.errors import CheckpointError
from repro.observability import get_registry

PathLike = Union[str, Path]
Opener = Callable[..., Any]

#: Wire version of the journal's JSONL records.
JOURNAL_FORMAT_VERSION = 1
#: Wire version of the checkpoint envelope, full and delta alike; no
#: other version is read.  Since version 3 traces hold start times and
#: labels, not the transitions (and their states) of versions 1 and 2;
#: version 4 states hold live actors only, and the simulator's owner
#: index rides its own ``open`` section; version 5 admission controllers
#: carry no committed profile (it is summed from their schedules).
CHECKPOINT_FORMAT_VERSION = 5
_CHECKPOINT_MAGIC = "rota-checkpoint"
#: The payload entry of an envelope encoded without its payload.
_EMPTY_PAYLOAD = b'"payload": ""'
#: A full snapshot reseeds the delta chain after this many deltas,
#: bounding both restore cost and the blast radius of a lost base.
FULL_INTERVAL = 8


def require_path(what: str, value: object) -> None:
    """Reject a durability location that is not a ``str`` or
    ``os.PathLike`` (``pathlib`` would raise a bare ``TypeError``)."""
    if not isinstance(value, (str, os.PathLike)):
        raise CheckpointError(f"{what} must be a path, got {value!r}")


# ----------------------------------------------------------------------
# Atomic file replacement
# ----------------------------------------------------------------------

@contextmanager
def atomic_writer(
    path: PathLike, *, mode: str = "w", opener: Opener = open
) -> Iterator[Any]:
    """Write ``path`` all-or-nothing: temp file + flush + fsync + rename.

    A crash at any point before the final rename leaves the previous
    contents of ``path`` (or its absence) untouched; readers never see a
    torn file under the final name.  ``opener`` is injectable so the chaos
    harness (:mod:`repro.faults.chaos`) can crash mid-write.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    handle = opener(str(tmp), mode)
    committed = False
    try:
        yield handle
        handle.flush()
        os.fsync(handle.fileno())
        handle.close()
        os.replace(tmp, path)
        committed = True
        _fsync_directory(path.parent)
    finally:
        if not committed:
            try:
                handle.close()
            except Exception:
                pass
            tmp.unlink(missing_ok=True)


def _fsync_directory(directory: Path) -> None:
    """Flush a rename to the directory entry (best-effort on exotic FS)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-dependent
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform-dependent
        pass
    finally:
        os.close(fd)


# ----------------------------------------------------------------------
# Write-ahead journal
# ----------------------------------------------------------------------

#: The journal body's encoder: ``json.dumps`` with these options builds
#: a fresh encoder per call, which costs a third of a record's encode.
_BODY = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _encode_record(data: Dict[str, Any]) -> bytes:
    """One journal line: the CRC-tagged envelope around ``data``.

    The sorted-keys body is encoded once and spliced into the envelope;
    the encoder escapes non-ASCII, so the bytes equal the two-pass
    :func:`_reference_encode_record` line exactly.
    """
    body = _BODY(data).encode()
    return b'{"crc":%d,"data":%s}\n' % (zlib.crc32(body), body)


def _reference_encode_record(data: Dict[str, Any]) -> bytes:
    """The two-pass encoding: the oracle :func:`_encode_record` must
    match byte for byte."""
    body = json.dumps(data, sort_keys=True, separators=(",", ":"))
    crc = zlib.crc32(body.encode("utf-8"))
    line = json.dumps(
        {"crc": crc, "data": data}, sort_keys=True, separators=(",", ":")
    )
    return line.encode("utf-8") + b"\n"


class Journal:
    """Append-only CRC-tagged JSONL log with torn-tail-tolerant recovery.

    Each :meth:`append` writes one complete line and flushes it, so a
    process crash can tear at most the final record.  ``fsync=True``
    additionally syncs every record to disk — surviving kernel/power
    failure, not just process death — at a per-record latency cost.
    """

    def __init__(
        self,
        path: PathLike,
        *,
        fsync: bool = False,
        opener: Opener = open,
        truncate: bool = False,
        _count: int = 0,
    ) -> None:
        require_path("journal", path)
        self._path = Path(path)
        self._fsync = fsync
        # A journal belongs to one run: fresh runs truncate, so records
        # (or torn bytes) from a previous run at the same path can never
        # poison this run's replay.  Resume keeps the acknowledged prefix.
        self._handle = opener(str(self._path), "wb" if truncate else "ab")
        self._count = _count
        #: bytes of torn tail discarded when this handle was opened by
        #: :meth:`for_resume` (0 = the file ended on a record boundary)
        self.torn_bytes = 0

    # ------------------------------------------------------------------
    @property
    def path(self) -> Path:
        return self._path

    @property
    def count(self) -> int:
        """Records this handle has acknowledged (appended or pre-existing)."""
        return self._count

    def append(self, data: Dict[str, Any]) -> int:
        """Durably append one record *before* its effect is applied."""
        registry = get_registry()
        started = registry.now() if registry.enabled else 0.0
        self._handle.write(_encode_record(data))
        self._handle.flush()
        if self._fsync:
            os.fsync(self._handle.fileno())
        self._count += 1
        if registry.enabled:
            registry.histogram(
                "journal_append_seconds",
                "write-ahead journal append latency (encode+write+flush)",
            ).observe(registry.now() - started)
            registry.counter(
                "journal_appends_total", "write-ahead journal records appended"
            ).inc()
        return self._count

    def close(self) -> None:
        try:
            self._handle.close()
        except ValueError:  # pragma: no cover - already closed
            pass

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    @staticmethod
    def scan(path: PathLike) -> Tuple[List[Dict[str, Any]], int]:
        """All complete, CRC-valid records plus the valid prefix length.

        A damaged *final* record (truncated line, torn JSON, CRC mismatch)
        is the signature of a crash mid-append and is silently dropped;
        the returned offset excludes it so callers can truncate.  Damage
        anywhere before the tail means the acknowledged prefix is corrupt
        and raises :class:`CheckpointError`.
        """
        raw = Path(path).read_bytes()
        records: List[Dict[str, Any]] = []
        valid_end = 0
        pos = 0
        while pos < len(raw):
            newline = raw.find(b"\n", pos)
            if newline == -1:
                break  # unterminated final line: torn write, discard
            line = raw[pos:newline]
            pos = newline + 1
            if not line:
                valid_end = pos
                continue
            record = _decode_record(line)
            if record is None:
                # Damage in the *final* record is the signature of a
                # crash mid-append and is dropped; anything after it
                # means the acknowledged prefix itself is corrupt.
                if raw[pos:].strip(b"\n") == b"":
                    break
                raise CheckpointError(
                    f"{path}: corrupt journal record "
                    f"{len(records) + 1} (before the tail)"
                )
            records.append(record)
            valid_end = pos
        return records, valid_end

    @classmethod
    def for_resume(
        cls, path: PathLike, *, fsync: bool = False, opener: Opener = open
    ) -> Tuple["Journal", List[Dict[str, Any]]]:
        """Open a journal for continuation after a crash.

        Scans the file, truncates the torn tail (if any), and returns the
        journal positioned at its end together with the valid records.

        Three states of the file at ``path`` are *fresh*, not errors —
        the crashed run died before its first append became durable:

        * the file does not exist (death before the journal was opened),
        * it exists but is zero-length (death before the header append),
        * it holds only torn bytes of record 0 (death mid-header-append).

        All three resume cleanly with zero acknowledged records; the
        resumed run re-appends the header itself.  Corruption *behind*
        acknowledged records still raises :class:`CheckpointError`.
        """
        registry = get_registry()
        started = registry.now() if registry.enabled else 0.0
        torn = 0
        if not Path(path).exists():
            records: List[Dict[str, Any]] = []
        else:
            records, valid_end = cls.scan(path)
            size = Path(path).stat().st_size
            if valid_end < size:
                # The torn tail is expected after a crash mid-append —
                # but silently treating it as if it never existed hides
                # real signal (how often crashes tear, how much data a
                # tear costs).  Count it; the simulator's resume also
                # surfaces it as a warning note in the resumed report.
                torn = size - valid_end
                registry.counter(
                    "journal_torn_tail_total",
                    "journal tails torn by a crash and truncated on resume",
                ).inc()
                registry.counter(
                    "journal_torn_tail_bytes_total",
                    "bytes of torn journal tail discarded on resume",
                ).inc(torn)
                os.truncate(path, valid_end)
        journal = cls(path, fsync=fsync, opener=opener, _count=len(records))
        journal.torn_bytes = torn
        if registry.enabled:
            registry.histogram(
                "journal_resume_scan_seconds",
                "journal scan + torn-tail truncation time on resume",
            ).observe(registry.now() - started)
        return journal, records


def _decode_record(line: bytes) -> Optional[Dict[str, Any]]:
    """One journal line back to its record; ``None`` when damaged."""
    try:
        envelope = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None
    if not isinstance(envelope, dict) or "crc" not in envelope:
        return None
    data = envelope.get("data")
    if not isinstance(data, dict):
        return None
    if zlib.crc32(_BODY(data).encode("utf-8")) != envelope["crc"]:
        return None
    return data


def journal_header(data: Dict[str, Any]) -> Dict[str, Any]:
    """The journal's first record: format version plus run identity."""
    return {
        "type": "journal_header",
        "format_version": JOURNAL_FORMAT_VERSION,
        **data,
    }


def check_journal_header(record: Dict[str, Any], path: PathLike) -> None:
    """Reject journals written by an unknown future format."""
    if record.get("type") != "journal_header":
        raise CheckpointError(
            f"{path}: first journal record is {record.get('type')!r}, "
            "expected 'journal_header'"
        )
    version = record.get("format_version")
    if not isinstance(version, int) or version < 1:
        raise CheckpointError(
            f"{path}: bad journal format_version {version!r}"
        )
    if version > JOURNAL_FORMAT_VERSION:
        raise CheckpointError(
            f"{path}: journal format_version {version} is newer than "
            f"supported {JOURNAL_FORMAT_VERSION}"
        )


# ----------------------------------------------------------------------
# Checkpoints
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SimulatorCheckpoint:
    """One atomic snapshot (or delta) of a running simulation.

    ``payload`` is the pickled simulator state (see
    :meth:`repro.system.simulator.OpenSystemSimulator._snapshot_sections`);
    ``journal_records`` is how many journal records had been acknowledged
    when the snapshot was taken, i.e. where replay-verification starts;
    ``sequence`` is the simulator's own event-sequence counter, the seq
    its next ``schedule()`` stamps on a heap entry, restored on resume.

    ``kind`` is ``"full"`` for a self-contained snapshot or ``"delta"``
    for an incremental one; a delta's ``payload`` is a pickled
    changed-section/trace-suffix bundle (see :class:`DeltaSnapshotter`)
    that only materializes on top of the base checkpoint identified by
    ``base_step`` and sealed by ``base_sha256``.
    """

    step: int
    journal_records: int
    sequence: int
    payload: bytes
    kind: str = "full"
    base_step: int = -1
    base_sha256: str = ""

    @property
    def is_delta(self) -> bool:
        return self.kind == "delta"

    @cached_property
    def sha256(self) -> str:
        """The payload's hex SHA-256 digest: the envelope's checksum and
        the ``base_sha256`` of the delta that follows, computed once."""
        return hashlib.sha256(self.payload).hexdigest()

    # ------------------------------------------------------------------
    def to_json(self) -> str:
        return self.to_bytes()[:-1].decode("ascii")

    def to_bytes(self) -> bytes:
        """The checkpoint file: the sorted-keys JSON envelope and a
        newline, in ASCII.

        The envelope is encoded with an empty payload and the base64
        bytes are spliced into it, so the payload is neither decoded to
        a string nor scanned for escapes (base64 needs none); the bytes
        equal those of ``json.dumps`` over the whole envelope.
        """
        envelope = {
            "magic": _CHECKPOINT_MAGIC,
            "format_version": CHECKPOINT_FORMAT_VERSION,
            "step": self.step,
            "journal_records": self.journal_records,
            "sequence": self.sequence,
            "sha256": self.sha256,
            "payload": "",
        }
        if self.is_delta:
            envelope["kind"] = self.kind
            envelope["base_step"] = self.base_step
            envelope["base_sha256"] = self.base_sha256
        head, tail = json.dumps(envelope, sort_keys=True).encode(
            "ascii"
        ).split(_EMPTY_PAYLOAD)
        return b"".join((
            head, b'"payload": "', base64.b64encode(self.payload), b'"',
            tail, b"\n",
        ))

    @classmethod
    def from_json(cls, text: str, *, source: str = "<checkpoint>") -> "SimulatorCheckpoint":
        try:
            envelope = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CheckpointError(f"{source}: not a checkpoint file") from exc
        if not isinstance(envelope, dict) or envelope.get("magic") != _CHECKPOINT_MAGIC:
            raise CheckpointError(f"{source}: missing checkpoint magic")
        version = envelope.get("format_version")
        if not isinstance(version, int) or version < 1:
            raise CheckpointError(
                f"{source}: bad checkpoint format_version {version!r}"
            )
        if version > CHECKPOINT_FORMAT_VERSION:
            raise CheckpointError(
                f"{source}: checkpoint format_version {version} is newer "
                f"than supported {CHECKPOINT_FORMAT_VERSION}"
            )
        if version < CHECKPOINT_FORMAT_VERSION:
            raise CheckpointError(
                f"{source}: checkpoint format_version {version} predates "
                f"supported {CHECKPOINT_FORMAT_VERSION}"
            )
        kind = envelope.get("kind", "full")
        if kind not in ("full", "delta"):
            raise CheckpointError(f"{source}: unknown checkpoint kind {kind!r}")
        try:
            payload = base64.b64decode(envelope["payload"].encode("ascii"))
        except (KeyError, AttributeError, ValueError) as exc:
            raise CheckpointError(f"{source}: unreadable payload") from exc
        digest = hashlib.sha256(payload).hexdigest()
        if digest != envelope.get("sha256"):
            raise CheckpointError(
                f"{source}: checksum mismatch (corrupt checkpoint)"
            )
        base_step = envelope.get("base_step", -1)
        base_sha = envelope.get("base_sha256", "")
        if kind == "delta" and (
            not isinstance(base_step, int)
            or base_step < 0
            or not isinstance(base_sha, str)
            or not base_sha
        ):
            raise CheckpointError(
                f"{source}: delta checkpoint lacks a valid base reference"
            )
        return cls(
            step=int(envelope["step"]),
            journal_records=int(envelope["journal_records"]),
            sequence=int(envelope["sequence"]),
            payload=payload,
            kind=kind,
            base_step=int(base_step),
            base_sha256=str(base_sha),
        )

    def save(self, path: PathLike, *, opener: Opener = open) -> Path:
        path = Path(path)
        registry = get_registry()
        started = registry.now() if registry.enabled else 0.0
        with atomic_writer(path, mode="wb", opener=opener) as handle:
            data = self.to_bytes()
            handle.write(data)
        if registry.enabled:
            registry.histogram(
                "checkpoint_write_seconds",
                "atomic checkpoint write time (serialize+fsync+rename)",
            ).observe(registry.now() - started)
            registry.counter(
                "checkpoint_bytes_written_total",
                "bytes of checkpoint envelope written",
            ).inc(len(data))
            registry.counter(
                "checkpoint_writes_total", "checkpoints written"
            ).inc()
        return path

    @classmethod
    def load(cls, path: PathLike) -> "SimulatorCheckpoint":
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise CheckpointError(f"{path}: cannot read checkpoint") from exc
        return cls.from_json(text, source=str(path))

    def restore_state(self) -> Dict[str, Any]:
        """Unpickle the snapshot payload (full checkpoints only)."""
        if self.is_delta:
            raise CheckpointError(
                "delta checkpoint cannot restore standalone; "
                "materialize it through CheckpointStore.resolve"
            )
        try:
            return pickle.loads(self.payload)
        except Exception as exc:
            raise CheckpointError(
                f"checkpoint payload does not unpickle: {exc}"
            ) from exc


# ----------------------------------------------------------------------
# Incremental snapshot encoding
# ----------------------------------------------------------------------

class _NeedsFull(Exception):
    """A section moved in a way no delta part can express."""


#: A rule's ``diff`` verdict for a section that did not move.
_UNCHANGED = object()


class _Rule:
    """How one section rides a delta checkpoint (stateless: the rules
    are used as classes, never instantiated).

    ``seed(value)`` is the base a snapshot leaves behind;
    ``diff(value, base)`` returns ``(part, next_base)``, with ``part``
    :data:`_UNCHANGED` when the section did not move, and raises
    :class:`_NeedsFull` when no part can express the move;
    ``apply(old, part)`` folds a part into the materialized value.
    """

    @classmethod
    def seed(cls, value: Any) -> Any:
        return value

    @classmethod
    def diff(cls, value: Any, base: Any) -> Tuple[Any, Any]:
        return (_UNCHANGED if value is base else value), value

    @classmethod
    def apply(cls, old: Any, part: Any) -> Any:
        return part


class _Identity(_Rule):
    """A frozen value: unchanged exactly when it is the same object."""


class _Pickled(_Rule):
    """Byte comparison: the section's pickle is its base and, when the
    bytes differ, its part."""

    @classmethod
    def blob(cls, value: Any) -> bytes:
        return pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)

    @classmethod
    def seed(cls, value):
        return cls.blob(value)

    @classmethod
    def diff(cls, value, base):
        blob = cls.blob(value)
        return (_UNCHANGED if blob == base else blob), blob

    @classmethod
    def apply(cls, old, part):
        return pickle.loads(part)


def _require_lengths(what: str, actual: Tuple[int, ...], expected) -> None:
    if actual != tuple(expected):
        raise CheckpointError(
            f"delta expects {what} append-only lengths {tuple(expected)} "
            f"but the chain materialized {actual}"
        )


class _TraceSuffix(_Rule):
    """The trace's four lists only grow: a part is what each gained."""

    @staticmethod
    def _lists(trace) -> Tuple[list, ...]:
        return (
            trace.transitions, trace.notes, trace.losses, trace.violations
        )

    @classmethod
    def seed(cls, trace):
        return tuple(len(lst) for lst in cls._lists(trace))

    @classmethod
    def diff(cls, trace, base):
        lists = cls._lists(trace)
        lens = tuple(len(lst) for lst in lists)
        if lens == base:
            return _UNCHANGED, base
        if any(new < old for new, old in zip(lens, base)):
            raise _NeedsFull
        suffix = tuple(lst[start:] for lst, start in zip(lists, base))
        return {"base": base, "suffix": suffix}, lens

    @classmethod
    def apply(cls, trace, part):
        lists = cls._lists(trace)
        _require_lengths(
            "trace", tuple(len(lst) for lst in lists), part["base"]
        )
        for lst, suffix in zip(lists, part["suffix"]):
            lst.extend(suffix)
        return trace


class _NetworkSection(_Pickled):
    """A mesh's wire state, byte-compared without its channel log; the
    log only grows and rides the part as a suffix."""

    @classmethod
    def blob(cls, value):
        return super().blob(
            {**value, "channel": {**value["channel"], "log": ()}}
        )

    @classmethod
    def seed(cls, value):
        return cls.blob(value), len(value["channel"]["log"])

    @classmethod
    def diff(cls, value, base):
        base_blob, base_len = base
        log = value["channel"]["log"]
        if len(log) < base_len:
            raise _NeedsFull
        blob = cls.blob(value)
        if blob == base_blob and len(log) == base_len:
            return _UNCHANGED, base
        part = {
            "section": None if blob == base_blob else blob,
            "base": base_len,
            "suffix": log[base_len:],
        }
        return part, (blob, len(log))

    @classmethod
    def apply(cls, old, part):
        log = old["channel"]["log"]
        _require_lengths("channel log", (len(log),), (part["base"],))
        new = old if part["section"] is None else pickle.loads(part["section"])
        new["channel"]["log"] = log + part["suffix"]
        return new


class _KeyedEvents(_Rule):
    """The event heap as a sorted list of ``(time, seq, event)`` entries,
    keyed by ``seq``: a part is the seqs removed since the base plus the
    entries added.  Events are frozen, so a kept entry is the very same
    tuple from snapshot to snapshot."""

    @classmethod
    def seed(cls, events):
        return {entry[1]: entry for entry in events}

    @classmethod
    def diff(cls, events, base):
        current = cls.seed(events)
        if len(current) != len(events):
            raise _NeedsFull  # duplicate seqs: the key is not a key
        removed = [
            seq for seq, entry in base.items()
            if current.get(seq) is not entry
        ]
        added = [
            entry for seq, entry in current.items()
            if base.get(seq) is not entry
        ]
        if not removed and not added:
            return _UNCHANGED, base
        return {"removed": removed, "added": added}, current

    @classmethod
    def apply(cls, events, part):
        gone = set(part["removed"])
        kept = [entry for entry in events if entry[1] not in gone]
        if len(kept) != len(events) - len(gone):
            raise CheckpointError(
                "delta removes events its base does not hold"
            )
        kept.extend(part["added"])
        kept.sort()
        return kept


class _KeyedRecords(_Rule):
    """Computation records keyed by label.  A record rides the part when
    it is new or its field dict differs from the shallow copy taken at
    the base; every field holds an immutable value, so an in-place
    mutation shows as a changed field.  Labels are only ever appended:
    a record that vanished (or moved) forces a full."""

    @classmethod
    def seed(cls, records):
        return {label: dict(vars(record)) for label, record in records.items()}

    @classmethod
    def diff(cls, records, base):
        if list(records)[: len(base)] != list(base):
            raise _NeedsFull
        changed = {
            label: record
            for label, record in records.items()
            if vars(record) != base.get(label)
        }
        if not changed:
            return _UNCHANGED, base
        base = dict(base)
        base.update(
            (label, dict(vars(record))) for label, record in changed.items()
        )
        return changed, base

    @classmethod
    def apply(cls, records, part):
        records.update(part)
        return records


class DeltaSnapshotter:
    """Encode simulator snapshots as deltas against the previous one.

    The caller hands over the *unpickled* section dict (see
    :meth:`~repro.system.simulator.OpenSystemSimulator._snapshot_sections`);
    the snapshotter decides full vs delta and returns a sealed
    :class:`SimulatorCheckpoint`:

    * the **first** snapshot, the one after every :data:`FULL_INTERVAL`
      deltas, and any snapshot whose section names changed or one of
      whose sections moved in a way no delta part expresses (an
      append-only sequence shrank, a record vanished — a new run reusing
      the snapshotter would corrupt the chain) is a **full**, the
      pickle of every section;
    * everything else is a **delta**: one pickled bundle holding a part
      for each section that moved since the previous snapshot, as
      computed by that section's one diff rule, chosen by name alone
      (:meth:`rule_for`): its entry in :attr:`RULES`, else pickled
      bytes, so in-place mutations (victim attempt counters) are still
      caught.  Bytes-ruled parts are nested pickles; every other part is
      pickled once with the bundle.

    The cache lives in process memory only: a resumed run must start a
    fresh snapshotter, whose first emission is therefore a full snapshot
    that reseeds the chain.
    """

    #: Section name whose value is the append-only simulation trace.
    TRACE_SECTION = "trace"

    #: Optional section holding a channel-aware policy's wire state (see
    #: ``MeshPolicy.network_snapshot``): in-flight queue ids + send-order
    #: counter, channel stats + log, the lease table's grant/renewal
    #: clocks, the applied-message dedup map, and the RPC attempt
    #: counter.  Because every message fate is a stateless function of
    #: ``(seed, link, msg_id)``, this section is all a resume needs to
    #: rebuild a byte-identical channel without replaying a single draw.
    #: Its channel log (``["channel"]["log"]``) is append-only and rides
    #: a delta as a suffix — a quiet wire costs nothing in a delta.
    NETWORK_SECTION = "network"

    #: The one diff rule of each specially-shaped section.
    RULES: Mapping[str, Type[_Rule]] = MappingProxyType({
        TRACE_SECTION: _TraceSuffix,
        NETWORK_SECTION: _NetworkSection,
        "events": _KeyedEvents,
        "records": _KeyedRecords,
        "state": _Identity,
    })

    def __init__(self) -> None:
        #: section name -> its base as of the last snapshot; ``None``
        #: until the first (full) snapshot
        self._bases: Optional[Dict[str, Any]] = None
        self._base_step = -1
        self._base_sha = ""
        self._deltas_since_full = 0

    # ------------------------------------------------------------------
    @classmethod
    def rule_for(cls, name: str) -> Type[_Rule]:
        """The diff rule section ``name`` rides by."""
        return cls.RULES.get(name, _Pickled)

    def encode(
        self,
        sections: Dict[str, Any],
        *,
        step: int,
        journal_records: int,
        sequence: int,
    ) -> SimulatorCheckpoint:
        parts = self._diff(sections)
        if parts is None:
            return self._encode_full(
                sections,
                step=step, journal_records=journal_records, sequence=sequence,
            )
        payload = pickle.dumps(
            {"parts": parts}, protocol=pickle.HIGHEST_PROTOCOL
        )
        checkpoint = SimulatorCheckpoint(
            step=step,
            journal_records=journal_records,
            sequence=sequence,
            payload=payload,
            kind="delta",
            base_step=self._base_step,
            base_sha256=self._base_sha,
        )
        self._advance(checkpoint)
        self._deltas_since_full += 1
        return checkpoint

    def _diff(self, sections: Dict[str, Any]) -> Optional[Dict[str, Any]]:
        """The part of every section that moved since the previous
        snapshot, or ``None`` when this snapshot must be full."""
        if (
            self._bases is None
            or self._deltas_since_full >= FULL_INTERVAL
            or sections.keys() != self._bases.keys()
        ):
            return None
        parts: Dict[str, Any] = {}
        bases: Dict[str, Any] = {}
        for name, value in sections.items():
            try:
                part, bases[name] = self.rule_for(name).diff(
                    value, self._bases[name]
                )
            except _NeedsFull:
                return None
            if part is not _UNCHANGED:
                parts[name] = part
        self._bases = bases
        return parts

    def _encode_full(
        self, sections, *, step, journal_records, sequence
    ) -> SimulatorCheckpoint:
        payload = pickle.dumps(sections, protocol=pickle.HIGHEST_PROTOCOL)
        self._bases = {
            name: self.rule_for(name).seed(value)
            for name, value in sections.items()
        }
        checkpoint = SimulatorCheckpoint(
            step=step,
            journal_records=journal_records,
            sequence=sequence,
            payload=payload,
        )
        self._advance(checkpoint)
        self._deltas_since_full = 0
        return checkpoint

    def _advance(self, checkpoint: SimulatorCheckpoint) -> None:
        self._base_step = checkpoint.step
        self._base_sha = checkpoint.sha256


class CheckpointStore:
    """A directory of ``ckpt-<step>.json`` files, newest-wins on resume."""

    def __init__(self, directory: PathLike, *, opener: Opener = open) -> None:
        require_path("checkpoint directory", directory)
        self._directory = Path(directory)
        self._directory.mkdir(parents=True, exist_ok=True)
        self._opener = opener

    @property
    def directory(self) -> Path:
        return self._directory

    def path_for(self, step: int) -> Path:
        return self._directory / f"ckpt-{step:08d}.json"

    def clear(self) -> None:
        """Delete every checkpoint in the directory.  A fresh run calls
        this before its first snapshot: an earlier run's higher-step
        checkpoints would otherwise win :meth:`latest` on resume."""
        for path in self._directory.glob("ckpt-*.json"):
            path.unlink()

    def save(self, checkpoint: SimulatorCheckpoint) -> Path:
        return checkpoint.save(
            self.path_for(checkpoint.step), opener=self._opener
        )

    def resolve(
        self, path: PathLike
    ) -> Tuple[SimulatorCheckpoint, Dict[str, Any]]:
        """Materialize the full state at ``path``, walking the delta chain.

        A full checkpoint unpickles directly.  A delta is applied on top
        of its base — located by ``base_step`` in this store and verified
        against ``base_sha256`` — recursively down to the anchoring full
        snapshot — by folding each of its parts into the materialized
        section through that section's :meth:`DeltaSnapshotter.rule_for`
        rule.  Any missing, corrupt, or mismatched link raises
        :class:`CheckpointError`, as does a payload that is not a bundle
        of parts; the suffixes of the append-only sequences (the trace's
        lists and the channel log) are only appended after asserting the
        materialized sequences have exactly the base lengths the delta
        was encoded against.
        """
        tip = SimulatorCheckpoint.load(path)
        chain = [tip]
        cursor = tip
        while cursor.is_delta:
            if cursor.base_step >= cursor.step:
                raise CheckpointError(
                    f"{path}: delta chain does not descend "
                    f"(step {cursor.step} -> base {cursor.base_step})"
                )
            base_path = self.path_for(cursor.base_step)
            base = SimulatorCheckpoint.load(base_path)
            if hashlib.sha256(base.payload).hexdigest() != cursor.base_sha256:
                raise CheckpointError(
                    f"{base_path}: payload does not match the base digest "
                    f"recorded by the step-{cursor.step} delta (broken chain)"
                )
            chain.append(base)
            cursor = base

        state = cursor.restore_state()
        for delta in reversed(chain[:-1]):
            try:
                parts = pickle.loads(delta.payload)["parts"]
                for name, part in parts.items():
                    old = state[name]
                    rule = DeltaSnapshotter.rule_for(name)
                    state[name] = rule.apply(old, part)
            except CheckpointError as exc:
                raise CheckpointError(f"step-{delta.step} {exc}") from exc
            except Exception as exc:
                raise CheckpointError(
                    f"step-{delta.step} delta payload does not decode: {exc}"
                ) from exc
        if len(chain) > 1:
            # The suffixes bypassed record()/record_loss(): re-derive the
            # trace's running conservation ledger from the extended lists.
            state[DeltaSnapshotter.TRACE_SECTION].rebuild_ledger()
        return tip, state

    def latest(self) -> Tuple[Path, SimulatorCheckpoint, Dict[str, Any]]:
        """The newest checkpoint file whose *whole chain* validates, with
        what :meth:`resolve` materialized from it: ``(path, checkpoint,
        state)``.

        Atomic writes mean a final-named file is normally intact, but a
        checkpoint that fails validation — including a delta whose base
        is missing, corrupt, or digest-mismatched — is skipped rather
        than fatal: an older snapshot plus journal replay reaches the
        same state.  When none validates, :class:`CheckpointError` names
        the newest file and why it was refused.
        """
        why = ""
        for path in sorted(self._directory.glob("ckpt-*.json"), reverse=True):
            try:
                return (path, *self.resolve(path))
            except CheckpointError as exc:
                why = why or f" (newest {path.name}: {exc})"
        raise CheckpointError(
            f"no usable checkpoint under {self._directory}: "
            f"nothing to resume{why}"
        )
