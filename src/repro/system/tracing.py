"""Simulation traces: what each timed slice did, plus notes, losses and
violations.

A trace entry (:class:`TraceEntry`) is a slice's start time and its
transition label — who consumed what, and what expired unused — never
the states around it: past slices never change, and the journal
rebuilds any state by deterministic re-execution.  Traces let tests and
benchmarks assert not only final outcomes but also *how* the system
evolved: per-slice consumption and expiry, the moments arrivals were
admitted or rejected, aggregate accounting that must balance, and —
under fault injection — every capacity loss and promise violation.

The conservation identity the trace supports is::

    offered = consumed + expired + revoked + degraded + crash-lost
              (+ capacity still ahead of the clock, mid-run)

:meth:`SimulationTrace.conservation_gaps` checks it both at run end (no
remaining capacity inside the horizon) and mid-run (remaining capacity
passed in), which is what lets the simulator use the auditor as a runtime
invariant checker.

The legs come from a *running ledger*: :meth:`SimulationTrace.record` and
:meth:`SimulationTrace.record_loss` fold each entry into per-located-type
totals (consumed, expired, lost by cause and in all), so a check costs
O(located types) instead of a re-sum of the whole trace, and the
simulator can afford it after every slice.  The ledger is derived state:
it stays out of the trace's pickle and is rebuilt from ``transitions``
and ``losses`` on restore.  The re-sums survive as the
``_reference_*`` oracles; :meth:`SimulationTrace.ledger_drift` compares
the two, and the simulator runs that comparison once at the end of every
run.  Both accumulate in record order, so even float legs agree bit for
bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, Tuple

from repro.intervals.interval import Time
from repro.logic.transitions import TransitionLabel
from repro.markers import checkpointable
from repro.resources.located_type import LocatedType
from repro.resources.profile import is_exact

#: Causes a capacity loss can carry (anything else is a modelling bug).
#: The first three are *faults* — capacity the system believed in that
#: vanished.  ``"shed"`` is deliberate: capacity the admission front door
#: refused at the gate (e.g. joins from an enclave whose circuit breaker
#: is open, see :mod:`repro.service`) — never acquired, so never part of
#: any promise, but still offered and therefore still owed a leg in the
#: conservation identity: ``offered = consumed + expired + lost + shed``.
#: ``"lease-expired"`` is *conservative renunciation*: leased capacity an
#: enclave stops trusting because renewals could not cross a network
#: partition (see :mod:`repro.faults.netfaults`) — the enclave evicts
#: whatever relied on it and the identity gains its final leg:
#: ``offered = consumed + expired + lost + shed + lease-expired``.
LOSS_CAUSES = ("revocation", "crash", "degradation", "shed", "lease-expired")


def _check_cause(cause: str) -> None:
    """Reject cause strings outside the known event vocabulary."""
    if cause not in LOSS_CAUSES:
        raise ValueError(
            f"unknown loss cause {cause!r}; expected one of {LOSS_CAUSES}"
        )


def same_quantity(left: Time, right: Time, tolerance: float = 1e-6) -> bool:
    """Equality of two accounted quantities: exact when both are exact
    (int/Fraction), within ``tolerance`` only once a float has entered."""
    if is_exact(left) and is_exact(right):
        return left == right
    return abs(float(left) - float(right)) <= tolerance


@dataclass(frozen=True)
class TraceEntry:
    """One timed slice: when it started and what it did."""

    t: Time
    label: TransitionLabel


@dataclass(frozen=True)
class TraceNote:
    """A timestamped free-form annotation (event outcomes etc.)."""

    time: Time
    message: str


@dataclass(frozen=True)
class ResourceLoss:
    """Capacity that vanished outside the declared model: one located
    type's quantity lost to one fault event."""

    time: Time
    cause: str  # one of LOSS_CAUSES
    ltype: LocatedType
    quantity: Time


@dataclass(frozen=True)
class PromiseViolation:
    """An admitted computation whose assurance died: at ``time`` the
    surviving resources can no longer cover its remaining demand within
    its window."""

    time: Time
    label: str
    cause: str  # the fault cause that triggered detection
    deadline: Time
    #: order-blind total demand still outstanding when detected
    remaining_total: Time


@checkpointable
@dataclass
class SimulationTrace:
    """Ordered record of every timed slice plus annotations."""

    transitions: List[TraceEntry] = field(default_factory=list)
    notes: List[TraceNote] = field(default_factory=list)
    losses: List[ResourceLoss] = field(default_factory=list)
    violations: List[PromiseViolation] = field(default_factory=list)

    #: The running ledger's attributes: derived from the lists above,
    #: so they never enter a pickle (snapshot bytes stay those of the
    #: bare lists) and are rebuilt on restore.
    _LEDGER = ("_consumed", "_expired", "_lost", "_lost_by_cause")

    def __post_init__(self) -> None:
        self.rebuild_ledger()

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        for name in self._LEDGER:
            state.pop(name, None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.rebuild_ledger()

    def rebuild_ledger(self) -> None:
        """Re-derive the running totals from ``transitions`` and
        ``losses``, in record order.  Needed whenever the lists grew
        without :meth:`record`/:meth:`record_loss` — a delta-checkpoint
        chain extends them in place on restore."""
        # The running totals stay out of every snapshot: a restore
        # rebuilds them from transitions/losses in record order.
        self._consumed: Dict[LocatedType, Time] = {}  # repro-lint: disable=flow-snapshot-coverage -- rebuilt from transitions on restore
        self._expired: Dict[LocatedType, Time] = {}  # repro-lint: disable=flow-snapshot-coverage -- rebuilt from transitions on restore
        self._lost: Dict[LocatedType, Time] = {}  # repro-lint: disable=flow-snapshot-coverage -- rebuilt from losses on restore
        self._lost_by_cause: Dict[str, Dict[LocatedType, Time]] = {}  # repro-lint: disable=flow-snapshot-coverage -- rebuilt from losses on restore
        for entry in self.transitions:
            self._absorb(entry)
        for loss in self.losses:
            self._absorb_loss(loss)

    def _absorb(self, entry: TraceEntry) -> None:
        consumed = self._consumed
        for _, ltype, quantity in entry.label.consumed:
            consumed[ltype] = consumed.get(ltype, 0) + quantity
        expired = self._expired
        for ltype, quantity in entry.label.expired:
            expired[ltype] = expired.get(ltype, 0) + quantity

    def _absorb_loss(self, loss: ResourceLoss) -> None:
        ltype = loss.ltype
        self._lost[ltype] = self._lost.get(ltype, 0) + loss.quantity
        by_cause = self._lost_by_cause.setdefault(loss.cause, {})
        by_cause[ltype] = by_cause.get(ltype, 0) + loss.quantity

    def record(self, t: Time, label: TransitionLabel) -> None:
        """Record the slice that started at ``t`` and did ``label``."""
        entry = TraceEntry(t, label)
        self.transitions.append(entry)
        self._absorb(entry)

    def note(self, time: Time, message: str) -> None:
        self.notes.append(TraceNote(time, message))

    def record_loss(
        self, time: Time, cause: str, ltype: LocatedType, quantity: Time
    ) -> None:
        _check_cause(cause)
        loss = ResourceLoss(time, cause, ltype, quantity)
        self.losses.append(loss)
        self._absorb_loss(loss)

    def record_violation(self, violation: PromiseViolation) -> None:
        self.violations.append(violation)

    # ------------------------------------------------------------------
    @property
    def steps(self) -> int:
        return len(self.transitions)

    def consumed_totals(self) -> Dict[LocatedType, Time]:
        """Total consumption per located type across the trace.

        Empty traces yield empty (zero-everywhere) totals, never an error.
        """
        return dict(self._consumed)

    def expired_totals(self) -> Dict[LocatedType, Time]:
        """Total expired (unused) quantity per located type."""
        return dict(self._expired)

    def lost_totals(self, cause: str | None = None) -> Dict[LocatedType, Time]:
        """Total capacity lost to faults per located type.

        ``cause`` restricts to one of :data:`LOSS_CAUSES` and is validated
        *before* the trace is consulted: an unknown cause raises
        :class:`ValueError` rather than returning an empty dict
        indistinguishable from "no losses".  With no cause, all losses
        aggregate (the ``+ revoked + crash-lost`` leg of the extended
        conservation identity).  An empty (or loss-free) trace yields
        empty, zero-everywhere totals, never an error.
        """
        if cause is None:
            return dict(self._lost)
        _check_cause(cause)
        return dict(self._lost_by_cause.get(cause, {}))

    # -- reference oracles: the ledger's totals re-summed from scratch --
    def _reference_consumed_totals(self) -> Dict[LocatedType, Time]:
        totals: Dict[LocatedType, Time] = {}
        for entry in self.transitions:
            for _, ltype, quantity in entry.label.consumed:
                totals[ltype] = totals.get(ltype, 0) + quantity
        return totals

    def _reference_expired_totals(self) -> Dict[LocatedType, Time]:
        totals: Dict[LocatedType, Time] = {}
        for entry in self.transitions:
            for ltype, quantity in entry.label.expired:
                totals[ltype] = totals.get(ltype, 0) + quantity
        return totals

    def _reference_lost_totals(
        self, cause: str | None = None
    ) -> Dict[LocatedType, Time]:
        totals: Dict[LocatedType, Time] = {}
        for loss in self.losses:
            if cause is not None and loss.cause != cause:
                continue
            totals[loss.ltype] = totals.get(loss.ltype, 0) + loss.quantity
        return totals

    def ledger_drift(self) -> List[str]:
        """Every leg where the running ledger disagrees with the
        ``_reference_*`` re-sum (empty when they agree exactly)."""
        legs = [
            ("consumed", self.consumed_totals(),
             self._reference_consumed_totals()),
            ("expired", self.expired_totals(),
             self._reference_expired_totals()),
            ("lost", self.lost_totals(), self._reference_lost_totals()),
        ]
        legs.extend(
            (f"lost[{cause}]", self.lost_totals(cause),
             self._reference_lost_totals(cause))
            for cause in LOSS_CAUSES
        )
        return [
            f"ledger {name} {ledger} != re-summed {reference}"
            for name, ledger, reference in legs
            if ledger != reference
        ]

    def shed_totals(self) -> Dict[LocatedType, Time]:
        """Capacity deliberately refused at the admission front door."""
        return self.lost_totals("shed")

    def consumption_by_actor(self) -> Dict[str, Dict[LocatedType, Time]]:
        """Who consumed what, over the whole trace."""
        totals: Dict[str, Dict[LocatedType, Time]] = {}
        for entry in self.transitions:
            for actor, ltype, quantity in entry.label.consumed:
                bucket = totals.setdefault(actor, {})
                bucket[ltype] = bucket.get(ltype, 0) + quantity
        return totals

    # ------------------------------------------------------------------
    def conservation_gaps(
        self,
        offered: Mapping[LocatedType, Time],
        *,
        remaining: Optional[object] = None,  # ResourceSet, duck-typed
        remaining_window: Optional[object] = None,  # Interval
        tolerance: float = 1e-6,
    ) -> List[str]:
        """Extended conservation check, one message per imbalance.

        At run end: ``offered = consumed + expired + lost`` per located
        type.  Mid-run, pass the live state's ``theta`` as ``remaining``
        and ``Interval(now, horizon)`` as ``remaining_window``: capacity
        still ahead of the clock has neither been consumed nor expired,
        and balances the identity at every instant.

        The legs are read from the running ledger (O(located types) per
        call).  Exact legs must balance exactly; ``tolerance`` applies
        only where a float entered.
        """
        consumed = self._consumed
        expired = self._expired
        lost = self._lost
        gaps: List[Tuple[str, str]] = []
        # Key discovery includes loss-only types: a located type that
        # shows up *only* in loss records (never offered, consumed, or
        # expired) is itself an accounting anomaly and must surface.
        keys = offered.keys() | consumed.keys() | expired.keys() | lost.keys()
        for ltype in keys:
            accounted = (
                consumed.get(ltype, 0)
                + expired.get(ltype, 0)
                + lost.get(ltype, 0)
            )
            if remaining is not None and remaining_window is not None:
                accounted = accounted + remaining.quantity(
                    ltype, remaining_window
                )
            total = offered.get(ltype, 0)
            if not same_quantity(accounted, total, tolerance):
                legs = "consumed+expired+lost"
                if self._lost_by_cause.get("shed"):
                    # deliberate front-door refusals ride in the loss
                    # records; name the leg so the message matches the
                    # extended identity offered = c + e + lost + shed
                    legs += "+shed"
                if self._lost_by_cause.get("lease-expired"):
                    # conservative lease renunciations ride there too;
                    # the full identity reads
                    # offered = c + e + lost + shed + lease-expired
                    legs += "+lease-expired"
                gaps.append((
                    str(ltype),
                    f"conservation: {ltype} offered {total} but "
                    f"accounted ({legs}"
                    f"{'+remaining' if remaining is not None else ''}) "
                    f"= {accounted}",
                ))
        # Types are sorted by name only to word the gaps in a stable order.
        gaps.sort(key=lambda gap: gap[0])
        return [message for _, message in gaps]

    def timeline(self) -> Iterator[Tuple[Time, str]]:
        """Merged, time-ordered view of notes and slice summaries."""
        entries: List[Tuple[Time, str]] = [
            (note.time, note.message) for note in self.notes
        ]
        entries.extend(
            (entry.t, str(entry.label)) for entry in self.transitions
        )
        entries.extend(
            (loss.time, f"lost to {loss.cause}: {loss.quantity} {loss.ltype}")
            for loss in self.losses
        )
        entries.extend(
            (v.time, f"promise violated: {v.label!r} ({v.cause})")
            for v in self.violations
        )
        return iter(sorted(entries, key=lambda item: item[0]))
