"""Chaos harness: one replay check and one kill-and-resume loop.

Every fault matrix proves one of two identities on seeded runs, and
each has exactly one implementation here:

* :func:`replay_identity` — the same plan, run twice, must give the
  same run.  It names the fingerprint fields the replay diverged on;
  :func:`replay_verdict` turns those (after conservation gaps, before a
  leg's "plan too gentle" guard) into a point's failure detail.  The
  overload and partition matrices and their benchmarks all call it and
  collect points into a :class:`MatrixResult`.
* :func:`kill_and_resume` — a run killed anywhere must resume to the
  same run.  It checks that a journaled, checkpointed run equals a
  plain one, then re-runs it once per crash point (every journal-record
  boundary, mid-write tears via :class:`CrashingFile`, and
  checkpoint-write crashes), resumes each from the surviving artifacts,
  and compares fingerprints field for field.

Each run kind has exactly one fingerprint: :func:`report_fingerprint`
(every record, tally, trace note, loss, violation, and per-slice
transition label) for a simulator run; plus ``"network"`` for a mesh
run (:func:`repro.faults.netfaults.mesh_fingerprint`) or ``"door"``
(the decision log) for a door-fronted one; ``{"decisions": ...}`` for
a standalone ``serve()`` run
(:func:`repro.faults.overload.serve_fingerprint`).

The kill-and-resume loop takes a :class:`CrashAdapter` (fresh, durable,
resume): :class:`SimulatorAdapter` behind :func:`chaos_crash_matrix`,
and :class:`repro.faults.netfaults.MeshAdapter` behind
:func:`repro.faults.netfaults.chaos_partition_crash_matrix`, which also
tags each kill with the torn record's partition phase and mid-RPC
status.  Conservation (``offered = consumed + expired + lost``) is
re-verified at the resume instant by :meth:`OpenSystemSimulator.resume`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any, Callable, Dict, List, Optional, Sequence, Tuple, TypeVar, Union,
)

from repro.errors import FaultInjectionError, RotaError
from repro.serialization import time_to_wire
from repro.system.checkpoint import CheckpointStore, Journal
from repro.system.simulator import OpenSystemSimulator, SimulationReport
from repro.workloads.scenarios import Scenario


class SimulatedCrash(RotaError, RuntimeError):
    """The injected process death.  Raised by :class:`CrashingFile`; the
    harness catches it where a supervisor would observe the exit."""


class CrashingFile:
    """File wrapper that crashes on the ``crash_at_write``-th write call.

    With ``partial_bytes`` set, that write first delivers a prefix of its
    payload (and flushes it, so the torn bytes truly reach the file) —
    modelling a crash mid-``write(2)``.  With ``partial_bytes=None`` the
    write delivers nothing: a clean record-boundary death.
    """

    def __init__(
        self,
        handle: Any,
        *,
        crash_at_write: int,
        partial_bytes: Optional[int] = None,
    ) -> None:
        if crash_at_write < 1:
            raise ValueError("crash_at_write counts writes from 1")
        self._handle = handle
        self._crash_at_write = crash_at_write
        self._partial_bytes = partial_bytes
        self._writes = 0

    def write(self, data) -> int:
        self._writes += 1
        if self._writes == self._crash_at_write:
            if self._partial_bytes:
                torn = data[: self._partial_bytes]
                self._handle.write(torn)
                self._handle.flush()
            raise SimulatedCrash(
                f"simulated crash on write {self._writes}"
                + (" (mid-write)" if self._partial_bytes else "")
            )
        return self._handle.write(data)

    def flush(self) -> None:
        self._handle.flush()

    def fileno(self) -> int:
        return self._handle.fileno()

    def close(self) -> None:
        self._handle.close()

    def __getattr__(self, name: str):
        return getattr(self._handle, name)


def crashing_opener(
    *, crash_at_write: int, partial_bytes: Optional[int] = None
) -> Callable[..., CrashingFile]:
    """An ``open``-alike whose files share one write budget — inject into
    :class:`Journal` or :class:`CheckpointStore` to schedule the death."""
    budget = {"writes_left": crash_at_write}

    def opener(path, mode="r"):
        handle = open(path, mode)
        wrapper = CrashingFile(
            handle,
            crash_at_write=budget["writes_left"],
            partial_bytes=partial_bytes,
        )
        # Writes on earlier files of the same opener count against the
        # shared budget (a process has one death, not one per file).
        original_write = wrapper.write

        def write(data):
            try:
                return original_write(data)
            finally:
                budget["writes_left"] -= 1

        wrapper.write = write  # type: ignore[method-assign]
        return wrapper

    return opener


class _CrashingCheckpointStore(CheckpointStore):
    """Checkpoint store whose ``crash_at_save``-th save dies mid-write,
    leaving a torn temp file and never surfacing the final name."""

    def __init__(self, directory, *, crash_at_save: int) -> None:
        super().__init__(directory)
        self._crash_at_save = crash_at_save
        self._saves = 0

    def save(self, checkpoint) -> Path:
        self._saves += 1
        if self._saves == self._crash_at_save:
            torn = self.path_for(checkpoint.step).with_suffix(".json.tmp")
            torn.write_text(checkpoint.to_json()[: 40])
            raise SimulatedCrash(
                f"simulated crash during checkpoint save {self._saves}"
            )
        return super().save(checkpoint)


# ----------------------------------------------------------------------
# Field-for-field report identity
# ----------------------------------------------------------------------

def report_fingerprint(report: SimulationReport) -> Dict[str, Any]:
    """A canonical value covering every field a report exposes.

    Two runs with equal fingerprints agree on every record (including
    violation instants, recovery attempts, and salvage accounting), every
    aggregate tally, and every trace entry down to per-slice consumption.
    """
    trace = report.trace
    return {
        "policy": report.policy_name,
        "horizon": time_to_wire(report.horizon),
        "records": [
            {
                "label": r.label,
                "arrival_time": time_to_wire(r.arrival_time),
                "window": (
                    time_to_wire(r.window.start),
                    time_to_wire(r.window.end),
                ),
                "total_demands": str(r.total_demands),
                "admitted": r.admitted,
                "rejection_reason": r.rejection_reason,
                "completed": r.completed,
                "finish_time": time_to_wire(r.finish_time)
                if r.finish_time is not None
                else None,
                "missed": r.missed,
                "violated_at": time_to_wire(r.violated_at)
                if r.violated_at is not None
                else None,
                "recovery_attempts": r.recovery_attempts,
                "recovered": r.recovered,
                "abandoned": r.abandoned,
                "salvaged": r.salvaged,
                "outcome": r.outcome,
            }
            for r in report.records
        ],
        "offered": _tally(report.offered),
        "consumed": _tally(report.consumed),
        "notes": [(time_to_wire(n.time), n.message) for n in trace.notes],
        "losses": [
            (time_to_wire(l.time), l.cause, str(l.ltype), float(l.quantity))
            for l in trace.losses
        ],
        "violations": [
            (
                time_to_wire(v.time),
                v.label,
                v.cause,
                time_to_wire(v.deadline),
                float(v.remaining_total),
            )
            for v in trace.violations
        ],
        "transitions": [
            (
                time_to_wire(tr.source.t),
                sorted(
                    (actor, str(ltype), float(q))
                    for actor, ltype, q in tr.label.consumed
                ),
                sorted(
                    (str(ltype), float(q)) for ltype, q in tr.label.expired
                ),
            )
            for tr in trace.transitions
        ],
    }


def _tally(amounts) -> List[tuple]:
    return sorted((str(ltype), float(q)) for ltype, q in amounts.items())


def diff_fingerprints(a: Dict[str, Any], b: Dict[str, Any]) -> List[str]:
    """Fields where two fingerprints disagree, in ``a``'s order; a field
    only one side has counts as disagreeing."""
    missing = object()
    keys = list(a) + [key for key in b if key not in a]
    return [
        key for key in keys if a.get(key, missing) != b.get(key, missing)
    ]


# ----------------------------------------------------------------------
# The replay check
# ----------------------------------------------------------------------

Run = TypeVar("Run")


def replay_identity(
    run: Callable[[], Run], fingerprint: Callable[[Run], Dict[str, Any]]
) -> Tuple[Run, List[str]]:
    """Call ``run()`` twice; return the first run's result and the
    fingerprint fields the second run diverged on (empty: identical)."""
    first = run()
    truth = fingerprint(first)
    return first, diff_fingerprints(truth, fingerprint(run()))


def replay_verdict(
    diverged: Sequence[str], too_gentle: str = "", gaps: Sequence[str] = ()
) -> str:
    """A replayed point's failure detail, ``""`` when clean.  Checked in
    order: whole-run conservation ``gaps``, then the ``diverged`` replay
    fields, then the leg's own plan-too-gentle guard."""
    if gaps:
        return "conservation gaps: " + "; ".join(gaps)
    if diverged:
        return "diverged fields: " + ", ".join(diverged)
    return too_gentle


@dataclass
class MatrixResult:
    """Outcome of a replay matrix (``noun`` names its points in the
    summary: "overload", "partition")."""

    noun: str
    points: List[Any] = field(default_factory=list)

    @property
    def failures(self) -> List[Any]:
        return [p for p in self.points if not p.ok]

    @property
    def ok(self) -> bool:
        return bool(self.points) and not self.failures

    def summary(self) -> str:
        return (
            f"{len(self.points)} {self.noun} points, "
            f"{len(self.points) - len(self.failures)} clean, "
            f"{len(self.failures)} failures"
        )


# ----------------------------------------------------------------------
# The kill-and-resume loop
# ----------------------------------------------------------------------

@dataclass
class CrashPoint:
    """One scheduled death and what resuming from it produced."""

    kind: str  # "boundary" | "mid-write" | "checkpoint"
    index: int  # write (or save) number the crash landed on
    crashed: bool  # False when the run finished before the budget hit
    resumed_from: str = ""  # checkpoint file name, or "fresh" fallback
    identical: bool = False
    detail: str = ""
    #: mesh journal kills only: where the torn record's instant falls
    #: relative to the partition window ("benign" | "pre-partition" |
    #: "mid-partition" | "post-partition") ...
    phase: str = ""
    #: ... and whether it is a multi-attempt RPC verdict, so the resume
    #: must re-walk the seeded backoff ladder, not re-draw it
    mid_rpc: bool = False


@dataclass
class ChaosResult:
    """Outcome of a crash matrix over one or more cells."""

    points: List[CrashPoint] = field(default_factory=list)
    cells: int = 0
    journal_records: int = 0

    @property
    def crashed_points(self) -> List[CrashPoint]:
        return [p for p in self.points if p.crashed]

    @property
    def mismatches(self) -> List[CrashPoint]:
        return [p for p in self.crashed_points if not p.identical]

    @property
    def covered_mid_partition(self) -> bool:
        return any(p.phase == "mid-partition" for p in self.crashed_points)

    @property
    def covered_mid_rpc(self) -> bool:
        return any(p.mid_rpc for p in self.crashed_points)

    @property
    def ok(self) -> bool:
        return bool(self.crashed_points) and not self.mismatches

    def summary(self) -> str:
        crashed = self.crashed_points
        return (
            f"{self.cells} cells, {self.journal_records} journal records, "
            f"{len(self.points)} kill points ({len(crashed)} crashed, "
            f"{sum(p.phase == 'mid-partition' for p in crashed)} "
            f"mid-partition, {sum(p.mid_rpc for p in crashed)} "
            f"mid-rpc-backoff, {sum(p.kind == 'checkpoint' for p in crashed)}"
            f" mid-checkpoint), {len(self.mismatches)} mismatches"
        )


class CrashAdapter:
    """The three ways :func:`kill_and_resume` executes a run; each
    returns the run's canonical fingerprint."""

    def fresh(self) -> Dict[str, Any]:
        """A plain run with no durability I/O."""
        raise NotImplementedError

    def durable(
        self,
        journal: Union[Path, Journal],
        checkpoint_dir: Union[Path, CheckpointStore],
    ) -> Dict[str, Any]:
        """A journaled and checkpointed run (it may die with
        :class:`SimulatedCrash`)."""
        raise NotImplementedError

    def resume(self, pointdir: Path, checkpoint: Path) -> Dict[str, Any]:
        """Finish a killed run from the artifacts under ``pointdir``;
        ``checkpoint`` is the newest usable one there."""
        raise NotImplementedError

    def tag(self, record: Dict[str, Any]) -> Dict[str, Any]:
        """Extra :class:`CrashPoint` fields for a kill tearing ``record``."""
        return {}


def kill_and_resume(
    adapter: CrashAdapter,
    workdir: Union[str, Path],
    *,
    mid_write: bool = True,
    checkpoint_crashes: int = 2,
    boundary_stride: int = 1,
) -> ChaosResult:
    """Kill one run everywhere, resume every kill, demand identity.

    The durable baseline must already equal the plain run (durability I/O
    alone changes nothing, else :class:`FaultInjectionError`).  Then the
    run dies at every ``boundary_stride``-th journal write — cleanly at
    the record boundary and, with ``mid_write``, torn mid-write — and
    during checkpoint saves 2 .. ``1 + checkpoint_crashes``.  Each kill
    resumes from the newest surviving checkpoint, or starts over when
    none survived, and its fingerprint must equal the plain run's."""
    if boundary_stride < 1:
        raise FaultInjectionError(
            f"boundary_stride must be >= 1, got {boundary_stride!r}"
        )
    workdir = Path(workdir)
    truth = adapter.fresh()
    basedir = workdir / "baseline"
    basedir.mkdir(parents=True, exist_ok=True)
    baseline = adapter.durable(basedir / "journal.jsonl", basedir)
    if baseline != truth:
        raise FaultInjectionError(
            "durability I/O altered the run itself: "
            + ", ".join(diff_fingerprints(truth, baseline))
        )
    records, _ = Journal.scan(basedir / "journal.jsonl")
    result = ChaosResult(cells=1, journal_records=len(records))
    tears = [("boundary", "boundary", None)]
    if mid_write:
        tears.append(("mid-write", "midwrite", 17))
    # Crash on the k-th journal write: the surviving journal holds k-1
    # acknowledged records — that is, death at every record boundary.
    for index in range(1, len(records) + 1, boundary_stride):
        tag = adapter.tag(records[index - 1])
        for kind, prefix, partial_bytes in tears:
            pointdir = workdir / f"{prefix}-{index:04d}"
            pointdir.mkdir(parents=True, exist_ok=True)
            journal = Journal(
                pointdir / "journal.jsonl",
                opener=crashing_opener(
                    crash_at_write=index, partial_bytes=partial_bytes
                ),
            )
            result.points.append(_kill(
                adapter, truth, pointdir, journal, pointdir,
                CrashPoint(kind, index, crashed=False, **tag),
            ))
    # Crashes while *writing a checkpoint*: the torn snapshot must never
    # surface; resume falls back to the previous one plus a longer replay.
    for index in range(2, 2 + checkpoint_crashes):
        pointdir = workdir / f"ckptcrash-{index:02d}"
        pointdir.mkdir(parents=True, exist_ok=True)
        result.points.append(_kill(
            adapter, truth, pointdir, pointdir / "journal.jsonl",
            _CrashingCheckpointStore(pointdir, crash_at_save=index),
            CrashPoint("checkpoint", index, crashed=False),
        ))
    return result


def _kill(
    adapter: CrashAdapter,
    truth: Dict[str, Any],
    pointdir: Path,
    journal: Union[Path, Journal],
    checkpoint_dir: Union[Path, CheckpointStore],
    point: CrashPoint,
) -> CrashPoint:
    try:
        adapter.durable(journal, checkpoint_dir)
        return point  # the budget outlived the run: nothing to resume
    except SimulatedCrash:
        point.crashed = True
    finally:
        if isinstance(journal, Journal):
            journal.close()
    latest = CheckpointStore(pointdir).latest()
    if latest is None:
        # Death before any snapshot became durable: recovery degenerates
        # to starting over — still loss-free, still identical.
        point.resumed_from = "fresh"
        fingerprint = adapter.fresh()
    else:
        point.resumed_from = latest.name
        fingerprint = adapter.resume(pointdir, latest)
    diverged = diff_fingerprints(truth, fingerprint)
    point.identical = not diverged
    point.detail = replay_verdict(diverged)
    return point


# ----------------------------------------------------------------------
# The simulator crash matrix
# ----------------------------------------------------------------------

@dataclass
class SimulatorAdapter(CrashAdapter):
    """Runs one seeded scenario on fresh simulators from the factory."""

    scenario: Scenario
    simulator_factory: Callable[[], OpenSystemSimulator]
    checkpoint_every: int = 5

    def _run(self, **durability: Any) -> Dict[str, Any]:
        simulator = self.simulator_factory()
        simulator.schedule(*self.scenario.events)
        return report_fingerprint(
            simulator.run(self.scenario.horizon, **durability)
        )

    def fresh(self) -> Dict[str, Any]:
        return self._run()

    def durable(self, journal, checkpoint_dir) -> Dict[str, Any]:
        return self._run(
            checkpoint_every=self.checkpoint_every,
            checkpoint_dir=checkpoint_dir,
            journal=journal,
        )

    def resume(self, pointdir: Path, checkpoint: Path) -> Dict[str, Any]:
        journal = pointdir / "journal.jsonl"
        resumed = OpenSystemSimulator.resume(
            checkpoint, journal if journal.exists() else None
        )
        return report_fingerprint(resumed.resume_run())


def chaos_crash_matrix(
    scenario: Scenario,
    simulator_factory: Callable[[], OpenSystemSimulator],
    workdir: Union[str, Path],
    *,
    checkpoint_every: int = 5,
    mid_write: bool = True,
    checkpoint_crashes: int = 2,
    boundary_stride: int = 1,
) -> ChaosResult:
    """Kill one seeded run at every event boundary; assert resume identity.

    ``simulator_factory`` must build a *fresh* simulator (fresh policy
    state) each call; the scenario's events are scheduled by the harness.
    ``boundary_stride`` thins the boundary sweep (1 = every journal
    record) for quick CI passes.  Returns a :class:`ChaosResult`; callers
    assert ``result.ok``.
    """
    return kill_and_resume(
        SimulatorAdapter(scenario, simulator_factory, checkpoint_every),
        workdir,
        mid_write=mid_write,
        checkpoint_crashes=checkpoint_crashes,
        boundary_stride=boundary_stride,
    )
