"""Discrete-event simulator for open distributed systems.

The simulator executes the ROTA transition rules against a timeline of
open-system events (resources joining, computations arriving/leaving),
with two pluggable policies:

* an **admission policy** (see :mod:`repro.baselines`) decides whether an
  arriving computation is accommodated, and
* an **allocation policy** (see :mod:`repro.system.scheduler`) chooses a
  concrete branch of the evolution tree each ``dt`` slice.

The simulator is the *ground truth* for the reproduction's synthetic
evaluation: an admission policy's promise ("this computation's deadline is
assured") is checked against what actually happens when the admitted set
executes.  Deadline misses of admitted computations are the soundness
failures the paper's reasoning is designed to rule out.

Beyond the paper's model, the simulator also executes *fault* events
(crashes, unannounced revocations, stragglers — see :mod:`repro.faults`):
every capacity loss is measured into the trace so the extended
conservation identity ``offered = consumed + expired + lost`` stays
checkable, victims of dead promises are detected at the instant of the
fault, and — when a :class:`~repro.faults.recovery.RecoveryPolicy` is
configured — routed through re-admission with capped exponential backoff,
or gracefully abandoned with salvage accounting.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field as dataclasses_field, replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Set, Tuple, Union

from repro.baselines.base import AdmissionPolicy, PolicyDecision
from repro.computation.requirements import ConcurrentRequirement
from repro.errors import CheckpointError, SimulationError, TransitionError
from repro.intervals.interval import Interval, Time, is_finite_time
from repro.logic.state import SystemState, initial_state
from repro.logic.transitions import accommodate, acquire, leave, step
from repro.markers import checkpointable
from repro.observability import PhaseTimer, get_registry
from repro.resources.located_type import LocatedType, Node
from repro.resources.resource_set import ResourceSet
from repro.serialization import time_to_wire
from repro.system.checkpoint import (
    CheckpointStore,
    DeltaSnapshotter,
    Journal,
    check_journal_header,
    journal_header,
    require_path,
)
from repro.system.events import (
    ComputationArrivalEvent,
    ComputationLeaveEvent,
    Event,
    NodeCrashEvent,
    PartitionHealEvent,
    PartitionStartEvent,
    RateDegradationEvent,
    RecoveryOfferEvent,
    ResourceJoinEvent,
    ResourceRevocationEvent,
)
from repro.system.scheduler import AllocationPolicy, EdfPolicy, ReservationPolicy
from repro.system.tracing import PromiseViolation, SimulationTrace

#: Every run starts at t = 0: the journal header records it, and
#: accounting windows open there.
START_TIME: Time = 0


@dataclass
class ComputationRecord:
    """Lifecycle of one arrival, as observed by the simulator."""

    label: str
    arrival_time: Time
    window: Interval
    #: the arrival's order-blind total demand, for audit accounting
    total_demands: Optional[object] = None
    admitted: bool = False
    rejection_reason: str = ""
    completed: bool = False
    finish_time: Optional[Time] = None
    missed: bool = False
    #: time the admission promise was detected dead (None = never violated)
    violated_at: Optional[Time] = None
    #: re-admission offers made by the recovery pipeline
    recovery_attempts: int = 0
    #: re-admitted after a violation (completion then counts as recovered)
    recovered: bool = False
    #: the recovery pipeline gave up; the record is terminal, not stuck
    abandoned: bool = False
    #: consumed quantity credited to the computation when it was abandoned
    salvaged: float = 0.0

    @property
    def outcome(self) -> str:
        if not self.admitted:
            return "rejected"
        if self.abandoned:
            return "abandoned"
        if self.completed:
            return "recovered" if self.recovered else "completed"
        if self.missed:
            return "missed"
        return "running"


@dataclass
class SimulationReport:
    """Everything a benchmark needs to score one simulation run."""

    policy_name: str
    records: List[ComputationRecord]
    offered: Dict[LocatedType, Time]
    consumed: Dict[LocatedType, Time]
    trace: SimulationTrace
    horizon: Time
    #: the process-global metrics registry's snapshot at run end, when a
    #: live registry was installed (None under the default no-op one).
    #: Pure observation: never journaled, checkpointed, or fingerprinted.
    metrics: Optional[Dict[str, object]] = None
    #: non-fatal anomalies surfaced by resume (e.g. a torn journal tail
    #: truncated on recovery).  Pure observation, like ``metrics``: a
    #: resumed run must stay field-for-field identical to the
    #: uninterrupted one, so warnings never enter the trace or the
    #: replay fingerprint.
    warnings: List[str] = dataclasses_field(default_factory=list)
    #: the checkpoint file a resumed run restored ("" when the run never
    #: resumed).  Observational, like ``warnings``.
    resumed_from: str = ""

    # ------------------------------------------------------------------
    @property
    def arrivals(self) -> int:
        return len(self.records)

    @property
    def admitted(self) -> int:
        return sum(1 for r in self.records if r.admitted)

    @property
    def completed(self) -> int:
        return sum(1 for r in self.records if r.completed)

    @property
    def missed(self) -> int:
        return sum(1 for r in self.records if r.missed)

    @property
    def rejected(self) -> int:
        return sum(1 for r in self.records if not r.admitted)

    @property
    def recovered(self) -> int:
        """Violated computations that were re-admitted and completed."""
        return sum(1 for r in self.records if r.completed and r.recovered)

    @property
    def abandoned(self) -> int:
        return sum(1 for r in self.records if r.abandoned)

    @property
    def violations(self) -> tuple[PromiseViolation, ...]:
        return tuple(self.trace.violations)

    @property
    def admission_precision(self) -> float:
        """Fraction of admitted computations whose deadline held."""
        admitted = self.admitted
        return self.completed / admitted if admitted else 1.0

    @property
    def utilization(self) -> float:
        """Consumed fraction of all offered resource quantity."""
        offered = sum(self.offered.values())
        if offered == 0:
            return 0.0
        return float(sum(self.consumed.values())) / float(offered)

    def record_of(self, label: str) -> ComputationRecord:
        for record in self.records:
            if record.label == label:
                return record
        raise KeyError(f"no record for {label!r}")


def _make_phase(registry, histogram):
    """Per-run phase-timer factory: the live registry gets one reusable
    :class:`~repro.observability.PhaseTimer` per phase name (a span in
    the run's timing tree plus an observation in the per-phase latency
    histogram — wall-clock only, never simulation state), the no-op
    registry gets its shared null span (zero allocation)."""
    if not registry.enabled:
        return registry.span
    timers: Dict[str, PhaseTimer] = {}

    def phase(name: str) -> PhaseTimer:
        timer = timers.get(name)
        if timer is None:
            timer = timers[name] = PhaseTimer(
                registry, histogram.labels(phase=name), name
            )
        return timer

    return phase


def _metric_amount(quantity):
    """``float(quantity)`` for metric samples, minus the dispatch tax.

    Fractions reach ``float()`` through ``numbers.Rational.__float__``
    (abstract-property lookups plus method dispatch), which is the
    single largest per-sample cost in instrumented runs; ints and floats
    need no conversion at all.  Yields bit-identical values to
    ``float()``."""
    kind = type(quantity)
    if kind is int or kind is float:
        return quantity
    try:
        return quantity._numerator / quantity._denominator
    except AttributeError:
        return float(quantity)


@dataclass
class _ActiveVictim:
    """A promise-violation victim between eviction and its final fate."""

    label: str
    residual: ConcurrentRequirement
    attempts: int = 0


@checkpointable
class OpenSystemSimulator:
    """Event-driven executor of the ROTA open-system rules."""

    def __init__(
        self,
        admission_policy: AdmissionPolicy,
        *,
        initial_resources: ResourceSet | None = None,
        allocation_policy: AllocationPolicy | None = None,
        dt: Time = 1,
        recovery: "RecoveryPolicy | None" = None,
        invariant_interval: int = 0,
    ) -> None:
        if not is_finite_time(dt) or dt <= 0:
            raise SimulationError(
                f"dt must be a finite number > 0, got {dt!r}"
            )
        if (
            isinstance(invariant_interval, bool)
            or not isinstance(invariant_interval, int)
            or invariant_interval < 0
        ):
            raise SimulationError(
                "invariant_interval must be an integer >= 0, "
                f"got {invariant_interval!r}"
            )
        self._admission = admission_policy
        self._allocation = allocation_policy or EdfPolicy()
        self._dt = dt
        self._events: List[tuple] = []
        # Tie-breaker for same-time events: schedule() call order.  Each
        # simulator counts its own, so a run's order never depends on
        # what else ran in the process; checkpoints carry it.
        self._next_seq = 0  # repro-lint: disable=flow-snapshot-coverage -- sealed in the checkpoint envelope as its sequence
        self._state = initial_state(
            initial_resources or ResourceSet.empty(), START_TIME
        )
        self._recovery = recovery
        self._invariant_interval = invariant_interval
        # Run-scoped fault/recovery bookkeeping (reset by run()).
        self._victims: Dict[str, _ActiveVictim] = {}
        self._flagged: Set[str] = set()
        self._horizon: Time = 0
        # Owner index over the admitted, unsettled records, in arrival
        # order: each label maps to its components still short of
        # completion, so the expire phase walks open work only.  A part
        # listed here but gone from rho retired short of completion.
        self._open: Dict[str, Tuple[str, ...]] = {}
        # Run-scoped report state (attributes, not run() locals, so a
        # checkpoint can snapshot them mid-run — see _snapshot_sections()).
        self._records: Dict[str, ComputationRecord] = {}
        self._offered: Dict[LocatedType, Time] = {}
        self._trace = SimulationTrace()
        self._run_window: Optional[Interval] = None  # repro-lint: disable=flow-snapshot-coverage -- derived from the horizon on resume
        # Durability plumbing (configured per run()).
        self._journal: Optional[Journal] = None  # repro-lint: disable=flow-snapshot-coverage -- reopened from the journal path on resume
        self._owns_journal = False  # repro-lint: disable=flow-snapshot-coverage -- reopened from the journal path on resume
        self._journal_count = 0  # repro-lint: disable=flow-snapshot-coverage -- sealed in the checkpoint envelope as its journal record count
        self._replay_records: List[dict] = []  # repro-lint: disable=flow-snapshot-coverage -- the journal suffix, reloaded on resume
        self._replay_pos = 0  # repro-lint: disable=flow-snapshot-coverage -- the journal suffix, reloaded on resume
        self._checkpoint_store: Optional[CheckpointStore] = None  # repro-lint: disable=flow-snapshot-coverage -- the directory resume reads
        self._checkpoint_every = 0
        self._last_checkpoint_step = -1  # repro-lint: disable=flow-snapshot-coverage -- sealed in the checkpoint envelope as its step
        self._snapshotter: Optional[DeltaSnapshotter] = None  # repro-lint: disable=flow-snapshot-coverage -- the delta cache dies with the process; a resume writes a full
        self._mid_run = False  # repro-lint: disable=flow-snapshot-coverage -- set by resume itself
        # Observational resume anomalies (torn journal tails) and the
        # restored checkpoint's name; reported, never traced or
        # fingerprinted.
        self._warnings: List[str] = []  # repro-lint: disable=flow-snapshot-coverage -- observational, never traced or fingerprinted
        self._resumed_from = ""  # repro-lint: disable=flow-snapshot-coverage -- observational, never traced or fingerprinted
        if initial_resources is not None and not initial_resources.is_empty:
            self._admission.observe_resources(initial_resources, START_TIME)

    # ------------------------------------------------------------------
    @property
    def admission_policy(self) -> AdmissionPolicy:
        """The policy deciding admissions — a resumed run's caller needs
        it back (the mesh report lines read channel/lease state)."""
        return self._admission

    # ------------------------------------------------------------------
    # Event scheduling
    # ------------------------------------------------------------------
    def schedule(self, *events: Event) -> None:
        # The heap holds (time, seq, event) tuples; seq is unique, so
        # events themselves are never compared.
        for event in events:
            heapq.heappush(self._events, (event.time, self._next_seq, event))
            self._next_seq += 1

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(
        self,
        horizon: Time,
        *,
        checkpoint_every: int = 0,
        checkpoint_dir: Union[str, Path, CheckpointStore, None] = None,
        journal: Union[str, Path, Journal, None] = None,
        journal_fsync: bool = False,
    ) -> SimulationReport:
        """Execute until ``horizon``; returns the scored report.

        Durability is opt-in: ``journal`` (a path or open
        :class:`~repro.system.checkpoint.Journal`) write-ahead-logs every
        applied event and admission decision; ``checkpoint_dir`` (with an
        optional cadence ``checkpoint_every``, in timed slices) snapshots
        the full simulator state atomically so a killed process resumes
        via :meth:`resume` to the *same* temporal state.
        """
        if self._mid_run:
            raise SimulationError(
                "this simulator holds restored mid-run state; "
                "call resume_run(), not run()"
            )
        if (
            isinstance(checkpoint_every, bool)
            or not isinstance(checkpoint_every, int)
            or checkpoint_every < 0
        ):
            raise SimulationError(
                "checkpoint_every must be an integer >= 0, "
                f"got {checkpoint_every!r}"
            )
        if not is_finite_time(horizon):
            raise SimulationError(
                f"horizon must be a finite number, got {horizon!r}"
            )
        self._horizon = horizon
        self._run_window = Interval(START_TIME, horizon)
        self._records = {}
        self._offered = {}
        self._trace = SimulationTrace()
        self._victims = {}
        self._flagged = set()
        self._open = {}
        self._replay_records = []
        self._replay_pos = 0
        self._journal_count = 0
        self._last_checkpoint_step = -1
        self._warnings = []
        self._resumed_from = ""
        # Per-run bound-series caches (observability): id()-keyed, so a
        # fresh run must never inherit bindings from a previous one.
        self._offered_series = None  # repro-lint: disable=flow-snapshot-coverage -- per-run metric handle cache
        self._lost_series = None  # repro-lint: disable=flow-snapshot-coverage -- per-run metric handle cache
        self._tally_offered(self._state.theta)
        self._configure_durability(
            journal, checkpoint_every, checkpoint_dir, journal_fsync
        )
        # The initial checkpoint precedes the journal header: resume is
        # possible even when the crash tears the very first journal write.
        self._maybe_checkpoint(force=True)
        if self._journal is not None:
            self._journal_record(self._header_record())
        return self._execute()

    @classmethod
    def resume(
        cls,
        checkpoint_path: Union[str, Path],
        journal_path: Union[str, Path, None] = None,
        *,
        journal_fsync: bool = False,
    ) -> "OpenSystemSimulator":
        """Rebuild a mid-run simulator from its durable artifacts.

        ``checkpoint_path`` is a checkpoint file or the directory holding
        the checkpoints; given a directory, the newest checkpoint whose
        delta chain validates wins (an older one plus a longer journal
        replay reaches the same state).  The resumed run keeps writing
        checkpoints next to the restored one.  A directory with no usable
        checkpoint (the error names the newest file and why it was
        refused), or no directory at all, raises
        :class:`~repro.system.checkpoint.CheckpointError` and creates
        nothing.

        The checkpoint restores the snapshot (state, records, pending
        recoveries mid-backoff, event heap, policy state, sequence
        counter); the journal's suffix past the checkpoint is replayed by
        deterministic re-execution, with every regenerated record verified
        against the journaled one — recorded admission promises stand,
        they are never re-decided.  The extended conservation identity
        ``offered = consumed + expired + lost (+ remaining)`` is
        re-verified at the restored instant before execution continues.
        Call :meth:`resume_run` on the result to finish the run.
        """
        require_path("checkpoint_path", checkpoint_path)
        if journal_path is not None:
            require_path("journal_path", journal_path)
        registry = get_registry()
        restore_started = registry.now() if registry.enabled else 0.0
        # resolve() materializes delta checkpoints through their base
        # chain; the directory search and the restore share that one call.
        source = Path(checkpoint_path)
        if source.is_file():
            store = CheckpointStore(source.parent)
            path, (checkpoint, payload) = source, store.resolve(source)
        elif source.is_dir():
            store = CheckpointStore(source)
            path, checkpoint, payload = store.latest()
        else:
            raise CheckpointError(
                f"no usable checkpoint under {source}: nothing to resume"
            )
        if registry.enabled:
            registry.histogram(
                "checkpoint_restore_seconds",
                "checkpoint load + unpickle time on resume "
                "(delta chains included)",
            ).observe(registry.now() - restore_started)
        sim = cls.__new__(cls)
        sim._admission = payload["admission"]
        # A channel-aware policy unpickles as a structurally valid shell
        # with an *empty* wire; the dedicated network section carries the
        # real in-flight queue, lease clocks, and RPC counters.
        restore_network = getattr(sim._admission, "restore_network", None)
        if restore_network is not None:
            network_state = payload.get(DeltaSnapshotter.NETWORK_SECTION)
            if network_state is None:
                raise CheckpointError(
                    "checkpoint has no 'network' section but the restored "
                    f"policy {sim._admission.name!r} carries wire state; "
                    "this checkpoint cannot resume the run soundly"
                )
            restore_network(network_state)
        sim._allocation = payload["allocation"]
        sim._recovery = payload["recovery"]
        sim._dt = payload["dt"]
        sim._invariant_interval = payload["invariant_interval"]
        sim._state = payload["state"]
        sim._records = payload["records"]
        sim._open = payload["open"]
        sim._offered = payload["offered"]
        sim._trace = payload["trace"]
        sim._events = payload["events"]
        heapq.heapify(sim._events)
        sim._victims = payload["victims"]
        sim._flagged = set(payload["flagged"])
        sim._horizon = payload["horizon"]
        sim._run_window = Interval(START_TIME, sim._horizon)
        sim._checkpoint_every = payload["checkpoint_every"]
        # Post-resume events (recovery offers) must sort against the
        # restored heap exactly as the uninterrupted run's would have.
        sim._next_seq = checkpoint.sequence
        sim._last_checkpoint_step = checkpoint.step
        sim._checkpoint_store = store
        # The delta cache died with the crashed process: a fresh
        # snapshotter's first emission is a full snapshot that reseeds
        # the chain (created lazily by _maybe_checkpoint).
        sim._snapshotter = None
        sim._journal = None
        sim._owns_journal = False
        sim._replay_records = []
        sim._replay_pos = 0
        sim._journal_count = checkpoint.journal_records
        sim._warnings = []
        sim._resumed_from = path.name
        if journal_path is not None:
            journal, records = Journal.for_resume(
                journal_path, fsync=journal_fsync
            )
            if journal.torn_bytes:
                sim._warnings.append(
                    f"journal {journal.path}: torn tail of "
                    f"{journal.torn_bytes} bytes truncated on resume "
                    "(crash mid-append; the unacknowledged record is "
                    "regenerated by deterministic re-execution)"
                )
            if records:
                check_journal_header(records[0], journal.path)
            if len(records) < checkpoint.journal_records:
                # The sealed checkpoint is *newer* than the journal's
                # acknowledged tail (the journal was lost or rolled back
                # independently of the checkpoint directory).  The
                # checkpoint is self-contained, checksummed state — it
                # wins.  Start a fresh journal epoch from the restored
                # instant: deterministic re-execution regenerates the
                # suffix, so nothing is double-replayed and nothing from
                # the stale tail can pin a divergent record.
                journal.close()
                journal = Journal(
                    journal_path, fsync=journal_fsync, truncate=True
                )
                sim._journal_count = 0
                sim._journal = journal
                sim._owns_journal = True
            else:
                sim._journal = journal
                sim._owns_journal = True
                sim._replay_records = records[checkpoint.journal_records:]
        gaps = sim._trace.conservation_gaps(
            sim._offered,
            remaining=sim._state.theta,
            remaining_window=Interval(sim._state.t, sim._horizon),
        )
        if gaps:
            raise CheckpointError(
                "conservation broken in restored state:\n  "
                + "\n  ".join(gaps)
            )
        sim._mid_run = True
        return sim

    def resume_run(self) -> SimulationReport:
        """Continue a resumed run to its horizon; returns the full report
        (pre-crash history included — the restored trace keeps growing)."""
        if not self._mid_run:
            raise SimulationError(
                "resume_run() requires a simulator built by resume()"
            )
        self._mid_run = False
        if self._journal is not None and self._journal_count == 0:
            # The crashed run died before its header became durable.
            self._journal_record(self._header_record())
        return self._execute()

    # ------------------------------------------------------------------
    def _execute(self) -> SimulationReport:
        state = self._state
        horizon = self._horizon
        records = self._records
        trace = self._trace
        registry = get_registry()
        # Null-registry instruments are shared no-op singletons, so the
        # per-slice metric calls below cost nothing when disabled.
        events_total = registry.counter(
            "sim_events_applied_total",
            "open-system events applied, by event kind",
            labels=("kind",),
        )
        slices_total = registry.counter(
            "sim_slices_total", "timed slices executed"
        )
        consumed_total = registry.counter(
            "sim_consumed_quantity_total",
            "resource quantity consumed, by located type",
            labels=("ltype",),
        )
        expired_total = registry.counter(
            "sim_expired_quantity_total",
            "resource quantity expired unused, by located type",
            labels=("ltype",),
        )
        phase_seconds = registry.histogram(
            "sim_phase_seconds",
            "wall-clock time per simulator phase per slice",
            labels=("phase",),
        )
        phase = _make_phase(registry, phase_seconds)
        instrumented = registry.enabled
        slices_series = slices_total.labels()
        # Per-sample label resolution (str(LocatedType) renders location
        # + type names; event kinds repeat every slice) would dominate
        # the instrumentation budget — bind each labeled series once and
        # memoize the handles per run.  Keys are id()s: LocatedType's
        # field-tuple hash is itself too hot for per-sample lookups, and
        # equal ltypes bind to the same underlying series either way.
        event_series: Dict[int, object] = {}
        # Consumed/expired quantities arrive in per-slice bursts (every
        # reservation leg of every slice); even a bound-series inc per
        # entry is too hot.  Accumulate into plain [ltype, total] cells
        # and flush into the counters once, after the loop.
        consumed_acc: Dict[int, list] = {}
        expired_acc: Dict[int, list] = {}

        # Channel-aware policies (repro.faults.netfaults) expose poll():
        # once per slice they deliver due wire messages, send due lease
        # renewals, and conservatively expire unrenewable leases.  Each
        # reported incident is a capacity loss measured through the
        # ordinary fault path, so lease expiry flows into victim
        # detection and the recovery pipeline exactly like a revocation.
        poll = getattr(self._admission, "poll", None)
        # Channel-aware policies also accumulate wire WAL entries (lease
        # grants/renewals/expiries, RPC verdicts) while
        # polling and deciding; draining them through _journal_record
        # once per slice pins them in the journal, so a resumed run
        # re-verifies every wire outcome instead of re-deciding it.
        drain_wire = getattr(self._admission, "drain_wire_records", None)

        with registry.span("simulator.run"):
            while state.t < horizon:
                self._state = state
                self._maybe_checkpoint()
                slices_series.inc()

                # 1. Instantaneous rules at the current instant.
                fault_causes: List[str] = []
                if poll is not None:
                    with phase("offer"):
                        for lost, cause, message in poll(state.t):
                            if message:
                                trace.note(state.t, message)
                            if lost is not None and not lost.is_empty:
                                fault_causes.append(cause)
                                state = self._apply_loss(
                                    state, lost, cause, trace
                                )
                with phase("offer"):
                    while self._events and self._events[0][0] <= state.t:
                        _, seq, event = heapq.heappop(self._events)
                        kind = type(event)
                        series = event_series.get(id(kind))
                        if series is None:
                            series = event_series[id(kind)] = (
                                events_total.labels(kind=kind.__name__)
                            )
                        series.inc()
                        self._journal_record(
                            _event_journal_entry(event, seq)
                        )
                        state = self._apply_event(
                            event, state, records, self._tally_offered,
                            trace, fault_causes,
                        )

                # 1b. Faults landed this instant: detect promise violations
                # and (when configured) route victims through recovery.
                if fault_causes:
                    with phase("recover"):
                        state = self._handle_violations(
                            state, records, trace, fault_causes
                        )

                # 1c. Pin this slice's wire outcomes in the journal (and
                # drain the buffer regardless, so it never grows when no
                # journal is configured).  Checkpoints happen at the top
                # of the loop, so the buffer is always empty there.
                if drain_wire is not None:
                    for entry in drain_wire():
                        self._journal_record(entry)

                # 2. One timed slice via the general transition rule.
                with phase("claim"):
                    allocations = self._allocation.allocate(state, self._dt)
                    transition = step(state, self._dt, allocations)
                trace.record(state.t, transition.label)
                if instrumented:
                    for _, ltype, quantity in transition.label.consumed:
                        amount = _metric_amount(quantity)
                        cell = consumed_acc.get(id(ltype))
                        if cell is None:
                            consumed_acc[id(ltype)] = [ltype, amount]
                        else:
                            cell[1] += amount
                    for ltype, quantity in transition.label.expired:
                        cell = expired_acc.get(id(ltype))
                        if cell is None:
                            expired_acc[id(ltype)] = [
                                ltype, _metric_amount(quantity)
                            ]
                        else:
                            cell[1] += _metric_amount(quantity)
                # The actors this slice finished leave the state.
                stepped = transition.target
                state = stepped.drop_finished()

                # 3. Outcome bookkeeping over the open records only.  A
                # multi-actor arrival completes when every component
                # completes; it misses when any component is still
                # unfinished at the arrival's deadline.
                with phase("expire"):
                    now = state.t
                    live = {p.label: p for p in stepped.rho}
                    for label, parts in list(self._open.items()):
                        record = records[label]
                        if label in self._victims:
                            # Awaiting re-admission; give up at the deadline.
                            if now >= record.window.end:
                                self._abandon(record, trace, now)
                            continue
                        # A part missing from rho retired short of
                        # completion: its deadline passed.
                        left = tuple(
                            part for part in parts
                            if part not in live or not live[part].is_complete
                        )
                        if not left:
                            record.completed = True
                            record.finish_time = now
                            self._settle(label)
                        elif now >= record.window.end:
                            record.missed = True
                            self._settle(label)
                        elif len(left) < len(parts):
                            self._open[label] = left

                # 4. Optional runtime invariant check: the extended
                # conservation identity must hold at every sampled instant.
                if (
                    self._invariant_interval
                    and trace.steps % self._invariant_interval == 0
                ):
                    gaps = trace.conservation_gaps(
                        self._offered,
                        remaining=state.theta,
                        remaining_window=Interval(state.t, horizon),
                    )
                    if gaps:
                        raise SimulationError(
                            "conservation broken mid-run at t="
                            f"{state.t}:\n  " + "\n  ".join(gaps)
                        )

            # A victim still awaiting re-admission when the run ends is
            # stuck by construction — it was evicted and holds no capacity
            # — so graceful degradation settles it as abandoned, never
            # "running".
            for label in list(self._victims):
                record = records.get(label)
                if record is not None and not record.abandoned:
                    self._abandon(record, trace, state.t)

        # The per-slice checks above read the trace's running ledger;
        # once per run, pin it to the from-scratch re-sum (O(slices)).
        drift = trace.ledger_drift()
        if drift:
            raise SimulationError(
                "trace ledger drifted from the re-summed trace:\n  "
                + "\n  ".join(drift)
            )

        if instrumented:
            for ltype, amount in consumed_acc.values():
                consumed_total.labels(ltype=str(ltype)).inc(amount)
            for ltype, amount in expired_acc.values():
                expired_total.labels(ltype=str(ltype)).inc(amount)

        self._state = state
        if self._owns_journal and self._journal is not None:
            self._journal.close()
        return SimulationReport(
            policy_name=self._admission.name,
            records=list(records.values()),
            offered=self._offered,
            consumed=trace.consumed_totals(),
            trace=trace,
            horizon=horizon,
            metrics=registry.snapshot() if registry.enabled else None,
            warnings=list(self._warnings),
            resumed_from=self._resumed_from,
        )

    # ------------------------------------------------------------------
    # Durability: offered tally, journaling, checkpoints
    # ------------------------------------------------------------------
    def _tally_offered(self, resources: ResourceSet) -> None:
        registry = get_registry()
        series_map = None
        if registry.enabled:
            # Joins repeat the same located types all run: bind each
            # series once per (run, registry).  The cache is reset by
            # run() so stale ltype ids can never alias across runs.
            cache = getattr(self, "_offered_series", None)
            if cache is None or cache[0] is not registry:
                cache = self._offered_series = (
                    registry,
                    registry.counter(
                        "sim_offered_quantity_total",
                        "resource quantity offered, by located type",
                        labels=("ltype",),
                    ),
                    {},
                )
            _, counter, series_map = cache
        for ltype in resources.located_types:
            amount = resources.quantity(ltype, self._run_window)
            if amount > 0:
                self._offered[ltype] = self._offered.get(ltype, 0) + amount
                if series_map is not None:
                    series = series_map.get(id(ltype))
                    if series is None:
                        series = series_map[id(ltype)] = counter.labels(
                            ltype=str(ltype)
                        )
                    series.inc(_metric_amount(amount))

    def _configure_durability(
        self,
        journal: Union[str, Path, Journal, None],
        checkpoint_every: int,
        checkpoint_dir: Union[str, Path, CheckpointStore, None],
        journal_fsync: bool,
    ) -> None:
        self._checkpoint_every = checkpoint_every
        self._checkpoint_store = None
        self._snapshotter = None
        if checkpoint_dir is not None:
            self._checkpoint_store = (
                checkpoint_dir
                if isinstance(checkpoint_dir, CheckpointStore)
                else CheckpointStore(checkpoint_dir)
            )
            # run() starts a fresh run, so its checkpoints start fresh
            # too, as a path journal is truncated below.
            self._checkpoint_store.clear()
            self._snapshotter = DeltaSnapshotter()
        elif checkpoint_every:
            raise SimulationError("checkpoint_every requires checkpoint_dir")
        self._journal = None
        self._owns_journal = False
        if journal is not None:
            if isinstance(journal, Journal):
                self._journal = journal
            else:
                # run() starts a fresh run, so a path journal starts
                # empty; stale records from a previous run at the same
                # path would otherwise poison a later resume's replay.
                self._journal = Journal(
                    journal, fsync=journal_fsync, truncate=True
                )
                self._owns_journal = True

    def _header_record(self) -> dict:
        return journal_header(
            {
                "policy": self._admission.name,
                "horizon": time_to_wire(self._horizon),
                "dt": time_to_wire(self._dt),
                "start": time_to_wire(START_TIME),
            }
        )

    @property
    def _replaying(self) -> bool:
        return self._replay_pos < len(self._replay_records)

    def _journal_record(self, record: dict) -> None:
        """WAL append — or, on a resumed run, verify the regenerated
        record against the one the crashed run already acknowledged."""
        if self._journal is None:
            return
        if self._replay_pos < len(self._replay_records):
            expected = self._replay_records[self._replay_pos]
            if expected != record:
                raise CheckpointError(
                    "resumed run diverged from the journal at record "
                    f"{self._journal_count + 1}: journal pinned "
                    f"{expected!r}, replay produced {record!r}"
                )
            self._replay_pos += 1
            get_registry().counter(
                "journal_replay_verified_total",
                "journal records re-verified against deterministic replay",
            ).inc()
        else:
            self._journal.append(record)
        self._journal_count += 1

    def _journal_decision(
        self,
        context: str,
        label: str,
        now: Time,
        decision: PolicyDecision,
        *,
        attempt: Optional[int] = None,
    ) -> None:
        if self._journal is None:
            return
        entry = {
            "type": "decision",
            "context": context,
            "label": label,
            "time": time_to_wire(now),
            "admitted": bool(decision.admitted),
            "reason": decision.reason,
        }
        if attempt is not None:
            entry["attempt"] = attempt
        self._journal_record(entry)

    def _maybe_checkpoint(self, force: bool = False) -> None:
        if self._checkpoint_store is None:
            return
        if self._replaying:
            return  # these snapshots already exist from the crashed run
        steps = self._trace.steps
        if not force:
            if not self._checkpoint_every:
                return
            if steps % self._checkpoint_every != 0:
                return
        if steps == self._last_checkpoint_step:
            return
        if self._snapshotter is None:
            self._snapshotter = DeltaSnapshotter()
        self._checkpoint_store.save(
            self._snapshotter.encode(
                self._snapshot_sections(),
                step=steps,
                journal_records=self._journal_count,
                sequence=self._next_seq,
            )
        )
        self._last_checkpoint_step = steps

    def _snapshot_sections(self) -> Dict[str, Any]:
        """The full simulator state as named sections, pre-pickle:
        everything :meth:`resume` needs to continue as if the process had
        never died, and the unit the delta snapshotter diffs
        checkpoint-to-checkpoint."""
        sections = {
            "state": self._state,
            "records": self._records,
            "offered": self._offered,
            "trace": self._trace,
            # Sorted, so a delta's keyed events part restores the same
            # list; a sorted list is a valid heap (resume heapifies).
            "events": sorted(self._events),
            "victims": self._victims,
            # Sorted, so equal sets pickle to equal bytes.
            "flagged": sorted(self._flagged),
            "open": self._open,
            "horizon": self._horizon,
            "dt": self._dt,
            "invariant_interval": self._invariant_interval,
            "checkpoint_every": self._checkpoint_every,
            "admission": self._admission,
            "allocation": self._allocation,
            "recovery": self._recovery,
        }
        # Channel-aware policies keep their wire state (in-flight queue,
        # lease clocks, RPC counters) out of their own pickle and hand it
        # over as a dedicated section instead — fates are stateless
        # draws, so this section alone rebuilds the wire on resume.
        network_snapshot = getattr(self._admission, "network_snapshot", None)
        if network_snapshot is not None:
            sections[DeltaSnapshotter.NETWORK_SECTION] = network_snapshot()
        return sections

    # ------------------------------------------------------------------
    def _apply_event(
        self,
        event: Event,
        state: SystemState,
        records: Dict[str, "ComputationRecord"],
        tally_offered,
        trace: SimulationTrace,
        fault_causes: List[str],
    ) -> SystemState:
        if isinstance(event, ResourceJoinEvent):
            joining = event.resources.truncate_before(state.t)
            tally_offered(joining)
            # The policy may refuse part of a join at the door (open
            # circuit breakers wall off a distrusted enclave's capacity).
            # Refused capacity is *shed*: offered but never acquired, so
            # it enters the trace as a measured loss and the conservation
            # identity extends to offered = consumed+expired+lost+shed.
            accepted = self._admission.admit_resources(joining, state.t)
            if accepted is not joining:
                withheld = joining.saturating_minus(accepted)
                shed_totals: Dict[LocatedType, Time] = {}
                for term in withheld.terms():
                    if term.is_null:
                        continue
                    shed_totals[term.ltype] = (
                        shed_totals.get(term.ltype, 0) + term.quantity
                    )
                for ltype, gone in shed_totals.items():
                    self._record_loss(trace, state.t, "shed", ltype, gone)
                joining = accepted
            self._admission.observe_resources(joining, state.t)
            trace.note(state.t, f"resources join: {len(joining.located_types)} types")
            state = acquire(state, joining)
            # New capacity is a new frontier: re-offer rejected arrivals
            # still inside their windows.
            for label, requirement in self._admission.retry_candidates(state.t):
                record = records.get(label)
                if record is None or record.admitted:
                    continue
                decision = self._admission.decide(requirement, state.t)
                self._journal_decision("retry", label, state.t, decision)
                if not decision.admitted:
                    continue
                record.admitted = True
                record.rejection_reason = ""
                trace.note(state.t, f"retry admitted {label!r}")
                state = self._accommodate(state, label, requirement, decision)
            # ... and a new frontier for evicted victims too: offer
            # re-admission ahead of their backoff schedule.
            for label in list(self._victims):
                state = self._offer_recovery(
                    state, records[label], trace, reason="join"
                )
            return state

        if isinstance(event, ComputationArrivalEvent):
            label = event.label
            if label in records:
                raise SimulationError(f"duplicate computation label {label!r}")
            record = ComputationRecord(
                label=label,
                arrival_time=state.t,
                window=event.requirement.window,
                total_demands=event.requirement.total_demands,
            )
            records[label] = record
            decision = self._admission.decide(event.requirement, state.t)
            self._journal_decision("arrival", label, state.t, decision)
            record.admitted = decision.admitted
            record.rejection_reason = decision.reason
            trace.note(
                state.t,
                f"arrival {label!r}: "
                f"{'admitted' if decision.admitted else 'rejected'}"
                + (f" ({decision.reason})" if decision.reason else ""),
            )
            if decision.admitted:
                return self._accommodate(
                    state, label, event.requirement, decision
                )
            return state

        if isinstance(event, ResourceRevocationEvent):
            # A promise violation: future capacity disappears.  Without a
            # recovery pipeline, admission policies are NOT told — their
            # committed schedules silently lost their backing, which is
            # exactly the failure mode being measured.
            revoked = event.resources.truncate_before(state.t)
            trace.note(
                state.t,
                f"revocation: {len(revoked.located_types)} types lose capacity",
            )
            fault_causes.append("revocation")
            return self._apply_loss(state, revoked, "revocation", trace)

        if isinstance(event, NodeCrashEvent):
            lost = _resources_at(state.theta, event.location)
            trace.note(state.t, f"crash: node {event.location} vanishes")
            fault_causes.append("crash")
            return self._apply_loss(state, lost, "crash", trace)

        if isinstance(event, RateDegradationEvent):
            survives = event.factor
            lost = _degradation_loss(state.theta, event.location, survives)
            trace.note(
                state.t,
                f"straggler: node {event.location} degrades to {survives}",
            )
            fault_causes.append("degradation")
            return self._apply_loss(state, lost, "degradation", trace)

        if isinstance(event, RecoveryOfferEvent):
            record = records.get(event.label)
            if record is None or event.label not in self._victims:
                return state  # victim already settled; stale offer
            return self._offer_recovery(state, record, trace, reason="backoff")

        if isinstance(event, (PartitionStartEvent, PartitionHealEvent)):
            # The network model already knows the window statically (so
            # in-flight fates stay closed-form); the event's job is to
            # journal the boundary and let the policy react at the exact
            # instant — entering degraded autonomy on start, reconciling
            # the partitioned sides' accounts on heal.  Any messages the
            # policy reports (e.g. per-lease settlement lines) become
            # trace notes, so reconciliation is auditable and replayable.
            healed = isinstance(event, PartitionHealEvent)
            trace.note(
                state.t,
                f"partition {event.name!r} "
                + ("heals" if healed else "starts")
                + f": {len(event.links)} links",
            )
            hook = getattr(self._admission, "on_partition", None)
            if hook is not None:
                for message in hook(
                    event.name, event.links, state.t, healed=healed
                ) or ():
                    trace.note(state.t, message)
            return state

        if isinstance(event, ComputationLeaveEvent):
            try:
                state = leave(state, event.label)
            except (KeyError, TransitionError):
                trace.note(state.t, f"leave {event.label!r} refused")
                return state
            self._admission.on_leave(event.label, state.t)
            self._settle(event.label)
            record = records.get(event.label)
            if record is not None:
                record.admitted = False
                record.rejection_reason = "withdrew before start"
            trace.note(state.t, f"leave {event.label!r}")
            return state

        raise SimulationError(f"unknown event {event!r}")

    def _accommodate(
        self,
        state: SystemState,
        label: str,
        requirement: ConcurrentRequirement,
        decision: PolicyDecision,
    ) -> SystemState:
        """Accommodate an admitted arrival's components under its label,
        reserve its witness schedule, and index it as open."""
        if decision.schedule is not None and isinstance(
            self._allocation, ReservationPolicy
        ):
            self._allocation.reserve(label, decision.schedule)
        relabelled = _relabel(requirement, label)
        late = (
            label not in self._open
            and label != next(reversed(self._records))
        )
        self._open[label] = tuple(part.label for part in relabelled.components)
        if late:
            # A retry admits an earlier arrival: keep arrival order.
            self._open = {
                key: self._open[key]
                for key in self._records
                if key in self._open
            }
        return accommodate(state, relabelled)

    def _settle(self, label: str) -> None:
        """A record reached its outcome (or withdrew): it leaves the
        owner index, its reservation, which no allocation reads again, is
        released, and the admission policy forgets it."""
        self._open.pop(label, None)
        if isinstance(self._allocation, ReservationPolicy):
            self._allocation.release(label)
        self._admission.on_settle(label)

    # ------------------------------------------------------------------
    # Fault handling
    # ------------------------------------------------------------------
    def _apply_loss(
        self,
        state: SystemState,
        lost: ResourceSet,
        cause: str,
        trace: SimulationTrace,
    ) -> SystemState:
        """Shrink ``theta`` and measure exactly how much capacity died."""
        if lost.is_empty:
            return state
        measure = Interval(state.t, self._horizon)
        survived = state.theta.saturating_minus(lost)
        for ltype in state.theta.located_types:
            gone = state.theta.quantity(ltype, measure) - survived.quantity(
                ltype, measure
            )
            if gone > 1e-12:
                self._record_loss(trace, state.t, cause, ltype, gone)
        if self._recovery is not None:
            # Honest recovery reasons against surviving resources only.
            self._admission.observe_loss(lost, state.t)
        return replace(state, theta=survived)

    def _record_loss(
        self,
        trace: SimulationTrace,
        at: Time,
        cause: str,
        ltype: LocatedType,
        gone: Time,
    ) -> None:
        """Trace one measured loss and count it by cause and located
        type; the bound series are cached per run, like
        ``_tally_offered``'s.  Every cause samples through
        :func:`_metric_amount`, so an int quantity counts as an int
        whether it was shed or lost to a fault."""
        trace.record_loss(at, cause, ltype, gone)
        registry = get_registry()
        if not registry.enabled:
            return
        cache = getattr(self, "_lost_series", None)
        if cache is None or cache[0] is not registry:
            cache = self._lost_series = (
                registry,
                registry.counter(
                    "sim_lost_quantity_total",
                    "capacity lost to faults, by cause and located type",
                    labels=("cause", "ltype"),
                ),
                {},
            )
        _, lost_total, series_map = cache
        series = series_map.get((cause, id(ltype)))
        if series is None:
            series = series_map[(cause, id(ltype))] = lost_total.labels(
                cause=cause, ltype=str(ltype)
            )
        series.inc(_metric_amount(gone))

    def _handle_violations(
        self,
        state: SystemState,
        records: Dict[str, ComputationRecord],
        trace: SimulationTrace,
        fault_causes: List[str],
    ) -> SystemState:
        from repro.faults.detection import find_victims

        cause = "+".join(sorted(set(fault_causes)))
        # A record with a part gone from rho short of completion is
        # already a plain miss: that part's deadline passed, and no
        # recovery can meet it.
        live = {p.label for p in state.rho}
        candidates = [
            label
            for label, parts in self._open.items()
            if label not in self._victims
            and label not in self._flagged
            and all(part in live for part in parts)
        ]
        for label, remaining_total in find_victims(state, candidates):
            record = records[label]
            record.violated_at = state.t
            self._flagged.add(label)
            trace.record_violation(
                PromiseViolation(
                    time=state.t,
                    label=label,
                    cause=cause,
                    deadline=record.window.end,
                    remaining_total=remaining_total,
                )
            )
            trace.note(state.t, f"promise violated: {label!r} ({cause})")
            if self._recovery is not None:
                state = self._begin_recovery(state, record, trace)
        return state

    def _begin_recovery(
        self,
        state: SystemState,
        record: ComputationRecord,
        trace: SimulationTrace,
    ) -> SystemState:
        """Evict the victim and start the re-admission pipeline."""
        from repro.faults.detection import components_of, residual_requirement

        label = record.label
        components = components_of(state, label)
        residual = residual_requirement(components, state.t, label)
        state = state.without(components)
        self._open[label] = ()
        self._admission.forfeit(label, state.t)
        if isinstance(self._allocation, ReservationPolicy):
            self._allocation.release(label)
            for progress in components:
                self._allocation.release(progress.label)
        self._victims[label] = _ActiveVictim(label, residual)
        return self._offer_recovery(state, record, trace, reason="eviction")

    def _offer_recovery(
        self,
        state: SystemState,
        record: ComputationRecord,
        trace: SimulationTrace,
        *,
        reason: str,
    ) -> SystemState:
        """One re-admission attempt; schedules the next or abandons."""
        assert self._recovery is not None
        victim = self._victims.get(record.label)
        if victim is None:
            return state
        now = state.t
        if now >= record.window.end:
            self._abandon(record, trace, now)
            return state
        victim.attempts += 1
        record.recovery_attempts = victim.attempts
        decision = self._admission.decide(victim.residual, now)
        self._journal_decision(
            "recovery", record.label, now, decision, attempt=victim.attempts
        )
        registry = get_registry()
        if registry.enabled:
            registry.counter(
                "recovery_offers_total",
                "re-admission offers to violation victims, by verdict "
                "and trigger",
                labels=("verdict", "trigger"),
            ).inc(
                verdict="admitted" if decision.admitted else "rejected",
                trigger=reason,
            )
        if decision.admitted:
            del self._victims[record.label]
            self._flagged.discard(record.label)
            record.recovered = True
            registry.counter(
                "recovery_outcomes_total",
                "settled violation victims, by terminal outcome",
                labels=("outcome",),
            ).inc(outcome="recovered")
            trace.note(
                now,
                f"recovered {record.label!r} on offer {victim.attempts} "
                f"({reason})",
            )
            return self._accommodate(
                state, record.label, victim.residual, decision
            )
        if victim.attempts >= self._recovery.max_attempts:
            self._abandon(record, trace, now)
            return state
        self.schedule(
            RecoveryOfferEvent(
                time=now + self._recovery.next_offer_delay(victim.attempts),
                label=record.label,
            )
        )
        return state

    def _abandon(
        self, record: ComputationRecord, trace: SimulationTrace, now: Time
    ) -> None:
        """Graceful degradation: terminal outcome plus salvage accounting."""
        victim = self._victims.pop(record.label, None)
        if victim is not None:
            record.recovery_attempts = victim.attempts
        record.abandoned = True
        self._settle(record.label)
        salvaged = 0.0
        for entry in trace.transitions:
            for actor, _, quantity in entry.label.consumed:
                if actor.split("[")[0] == record.label:
                    salvaged += _metric_amount(quantity)
        record.salvaged = salvaged
        get_registry().counter(
            "recovery_outcomes_total",
            "settled violation victims, by terminal outcome",
            labels=("outcome",),
        ).inc(outcome="abandoned")
        trace.note(
            now,
            f"abandoned {record.label!r} after {record.recovery_attempts} "
            f"offers (salvaged {salvaged:g})",
        )


def _event_journal_entry(event: Event, seq: int) -> dict:
    """The WAL record for one applied event.

    Intentionally a summary, not the full wire form: replay re-executes
    from the checkpointed heap, so the journal's job is pinning *which*
    event took effect when, in a form stable under JSON round-trips.
    """
    entry = {
        "type": "event",
        "kind": type(event).__name__,
        "time": time_to_wire(event.time),
        "seq": seq,
    }
    label = getattr(event, "label", None)
    if label:
        entry["label"] = label
    location = getattr(event, "location", None)
    if location is not None:
        entry["location"] = location.name
    name = getattr(event, "name", None)
    if name:
        entry["name"] = name
    return entry


def _resources_at(theta: ResourceSet, location: Node) -> ResourceSet:
    """Everything located at a node: its own resources plus every link
    touching it (a crashed peer can neither compute nor communicate)."""
    doomed = {}
    for ltype in theta.located_types:
        where = ltype.location
        if where == location or (
            not isinstance(where, Node)
            and location in (where.source, where.destination)
        ):
            doomed[ltype] = theta.profile(ltype)
    return ResourceSet.from_profiles(doomed)


def _degradation_loss(theta: ResourceSet, location: Node, factor) -> ResourceSet:
    """The capacity a straggler node sheds: ``1 - factor`` of every
    node-located resource's remaining profile (links keep their rate —
    the node is slow, not partitioned)."""
    lost = {}
    for ltype in theta.located_types:
        if ltype.location == location:
            lost[ltype] = theta.profile(ltype).scale(1 - factor)
    return ResourceSet.from_profiles(lost)


def _relabel(
    requirement: ConcurrentRequirement, label: str
) -> ConcurrentRequirement:
    """Prefix component labels with the arrival label so state progress
    records are unambiguous across arrivals."""
    from repro.computation.requirements import ComplexRequirement

    components = []
    for index, part in enumerate(requirement.components):
        new_label = label if len(requirement.components) == 1 else f"{label}[{index}]"
        components.append(
            ComplexRequirement(part.phases, part.window, label=new_label)
        )
    return ConcurrentRequirement(tuple(components), requirement.window)
