"""Theorem 4 — accommodating additional computations.

Theorem 4: a new computation ``(Gamma, s, d)`` can be accommodated
*without affecting the computations already in the system* if the
resources expiring (going unused) along a committed computation path
during ``(s, d)`` satisfy the new computation's complex requirement.  The
combined path — existing transitions merged with the new computation's —
is then itself a valid concurrent path.

:class:`AdmissionController` keeps that committed path as the work
behind it:

* ``_available``  — all resources the system knows about (``Theta``),
* ``_schedules``  — the admitted schedules, whose claims make up the
  committed path, and ``_reserved``, the resources set aside without a
  schedule (a child enclave's allotment),
* ``_slack``      — the *expiring slack* ``available - committed``, the
  executable analogue of the paper's ``U Theta_expire``: whatever the
  committed path will not consume would expire, and is therefore free
  for newcomers.

Admission checks the newcomer against the slack only, so prior
commitments are never disturbed — the controller never re-plans
admitted work — and a commit subtracts the newcomer's claim from the
slack and nothing else.  The committed path itself is a view, summed
from the schedules when something reads it (:attr:`committed`): the
oracle :meth:`AdmissionController.verify_slack` pins the slack to.

Resources in the past have expired, so the state holds live work only:
:meth:`AdmissionController.advance_to` retires finished schedules and
cuts the past off.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.computation.demands import Demands
from repro.computation.requirements import (
    ComplexRequirement,
    ConcurrentRequirement,
)
from repro.decision.concurrent import find_concurrent_schedule
from repro.decision.schedule import ConcurrentSchedule
from repro.errors import (
    AdmissionConfigError,
    TransitionError,
    UndefinedOperationError,
)
from repro.intervals.interval import (
    Interval,
    Time,
    is_finite_time,
    trusted_interval,
)
from repro.markers import checkpointable
from repro.observability import get_registry
from repro.resources.located_type import LocatedType
from repro.resources.profile import RateProfile, float_key
from repro.resources.resource_set import ResourceSet
from repro.resources.term import ResourceTerm

_new = object.__new__


@dataclass(frozen=True)
class AdmissionDecision:
    """Outcome of an admission attempt."""

    admitted: bool
    label: str
    schedule: Optional[ConcurrentSchedule] = None
    reason: str = ""

    def __bool__(self) -> bool:
        return self.admitted


@checkpointable
class AdmissionController:
    """Deadline-assurance admission control per Theorem 4.

    The controller is the paper's intended application: at any time,
    given a computation, evaluate whether its deadline constraint can be
    assured by the available resources — and if admitted, guarantee it
    stays assured as further computations and resources arrive.
    """

    def __init__(
        self,
        available: ResourceSet | None = None,
        *,
        now: Time = 0,
        align: Time | None = None,
    ) -> None:
        if not is_finite_time(now):
            raise AdmissionConfigError(
                f"now must be a finite number, got {now!r}"
            )
        if align is not None and (not is_finite_time(align) or align <= 0):
            raise AdmissionConfigError(
                f"align must be None or a finite number > 0, got {align!r}"
            )
        self._available = available or ResourceSet.empty()
        #: Resources committed without a schedule (:meth:`reserve`).
        self._reserved = ResourceSet.empty()
        #: Where the last retirement cut the past off (``None`` before
        #: the first): the committed view is cut there too, so it lines
        #: up with ``_available`` and ``_slack``.
        self._cut: Time | None = None
        # Cached ``available - committed``: the one-more-admission query
        # is the hot path and recomputing the relative complement per
        # call is the dominant cost (measured in bench_profile_ops.py's
        # slack-cache ablation).  ``admit`` and ``reserve`` subtract an
        # amount the slack dominates, so they update it window-locally and
        # stay exact; every other mutation re-derives it from the
        # reference.
        self._slack = self._available
        self._schedules: Dict[str, ConcurrentSchedule] = {}
        # The committed view, summed on first read after a change to the
        # committed path (see :attr:`committed`); never pickled.
        self._view: Optional[ResourceSet] = None
        # ``(key, finish_time, label)`` per admitted schedule, a min-heap
        # that :meth:`advance_to` pops to retire finished work without
        # scanning every schedule.  ``key`` is the finish time's float
        # key, so a push compares doubles and only a tie compares the
        # exact times.  Derived from ``_schedules``: entries of labels
        # that left early are skipped when popped.
        self._finishing: List[Tuple[float, Time, str]] = []
        self._now = now
        #: Witness breakpoints are rounded up to this grid when set: pass
        #: the executor's ``Delta t`` so committed schedules survive
        #: slice-atomic execution (see ``find_schedule``).
        self._align = align

    # ------------------------------------------------------------------
    # State inspection
    # ------------------------------------------------------------------
    @property
    def now(self) -> Time:
        return self._now

    @property
    def available(self) -> ResourceSet:
        """All resources known to the system (``Theta``)."""
        return self._available

    @property
    def committed(self) -> ResourceSet:
        """The committed path: the reservations plus the claims of the
        live schedules, cut where the last retirement cut the past off.

        A view, summed from the schedules on read (one
        :meth:`RateProfile.sum` per located type, in admission order) and
        cached until the next change to what is committed: an admission,
        reservation, release, withdrawal, forfeit or retiring
        :meth:`advance_to`.  Joins and revocations leave it valid."""
        view = self._view
        if view is None:
            per_type: Dict[LocatedType, List[RateProfile]] = {}
            claims = [self._reserved] + [
                schedule.consumption() for schedule in self._schedules.values()
            ]
            for claim in claims:
                for ltype, profile in claim.profiles().items():
                    per_type.setdefault(ltype, []).append(profile)
            view = ResourceSet.from_profiles(
                {ltype: RateProfile.sum(group) for ltype, group in per_type.items()}
            )
            if self._cut is not None:
                view = view.truncate_before(self._cut)
            self._view = view
        return view

    @property
    def expiring_slack(self) -> ResourceSet:
        """``U Theta_expire``: resources the committed path will not use.

        Equal to ``available - committed`` after every mutation (see
        :meth:`verify_slack`).
        """
        return self._slack

    def reference_slack(self) -> ResourceSet:
        """The slack recomputed from scratch: ``available - committed``,
        with the committed path summed from the live schedules (see
        :attr:`committed`), not carried along with the slack.

        This is the oracle the incremental cache is pinned to.  The exact
        relative complement applies whenever it is defined; after
        unannounced revocations the committed path may exceed what
        survives, and the clamped (saturating) difference is the sound
        reading — capacity that no longer exists is not free.
        """
        committed = self.committed
        try:
            return self._available - committed
        except UndefinedOperationError:
            return self._available.saturating_minus(committed)

    def verify_slack(self) -> bool:
        """Whether the cached slack equals :meth:`reference_slack` — true
        after every mutation (property-tested, and asserted after each
        controller call of a faulty chaos run)."""
        return self._slack == self.reference_slack()

    # ------------------------------------------------------------------
    # Pickling (checkpoint payloads)
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        """Drop the derived state from pickles: the committed path is
        summed from the schedules, the slack is ``available - committed``
        (serializing either would duplicate the schedules' and the
        availability's profiles in every checkpoint), and the finish heap
        is read off the schedules.  :meth:`__setstate__` re-derives
        them."""
        state = dict(self.__dict__)
        state["_slack"] = state["_finishing"] = state["_view"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._slack = self.reference_slack()
        self._finishing = [
            (float_key(schedule.finish_time), schedule.finish_time, label)
            for label, schedule in self._schedules.items()
        ]
        heapq.heapify(self._finishing)

    @property
    def admitted_labels(self) -> tuple[str, ...]:
        """Labels of the admitted schedules not yet retired."""
        return tuple(self._schedules)

    def schedule_of(self, label: str) -> ConcurrentSchedule:
        """The schedule under ``label`` (``KeyError`` once retired)."""
        return self._schedules[label]

    # ------------------------------------------------------------------
    # Resource dynamics (the open-system rules)
    # ------------------------------------------------------------------
    def add_resources(self, joining: ResourceSet | Iterable[ResourceTerm]) -> None:
        """Resource acquisition rule: ``Theta := Theta U Theta_join``.

        Per the paper there is no resource-leave rule — a term's interval
        already states when it leaves.  The slack is re-derived, so after
        a revocation the joining capacity first backs the commitments the
        loss left short before any of it reads as free.
        """
        if not isinstance(joining, ResourceSet):
            joining = ResourceSet(joining)
        self._available = self._available | joining
        self._slack = self.reference_slack()

    @property
    def align(self) -> Time | None:
        """The witness-alignment grid (None = exact continuous time)."""
        return self._align

    def revoke_resources(self, lost: ResourceSet) -> None:
        """Capacity vanished unannounced (a promise violation, outside the
        paper's model): shrink the availability view, clamped at zero.

        Committed schedules are *not* re-planned here — their backing may
        be gone, which is exactly what :meth:`forfeit` accounts for when
        the violation is detected.  The slack is re-derived from what
        survives (saturating where the committed path now exceeds it), so
        the Theorem-4 check never sees free capacity that no longer
        exists.
        """
        if not isinstance(lost, ResourceSet):
            lost = ResourceSet(lost)
        self._available = self._available.saturating_minus(lost)
        self._slack = self.reference_slack()

    def forfeit(self, label: str) -> None:
        """Remove an admitted computation whose promise was violated.

        Unlike :meth:`withdraw` (the paper's leave rule, valid only while
        ``t < s``), forfeiture is a *recovery* action: the victim may have
        started.  Its claimed consumption leaves the committed path and
        the slack is rebuilt from surviving availability, so re-admission
        attempts reason against reality.
        """
        if self._schedules.pop(label, None) is None:
            raise TransitionError(f"no admitted computation labelled {label!r}")
        self._recommit()

    def _recommit(self) -> None:
        """The committed path changed other than by a claim the slack
        dominates: drop the view and re-derive the slack from it.  Adding
        a claim back window-locally would be exact only where
        ``available`` still covers ``committed``; after a revocation the
        reference decides what the claim frees."""
        self._view = None
        self._slack = self.reference_slack()

    def reserve(self, resources: ResourceSet) -> None:
        """Mark ``resources`` as committed without a schedule — used by
        resource encapsulations carving out a child's allotment.  Its part
        ahead of ``now`` must fit inside the current expiring slack."""
        resources = resources.truncate_before(self._now)
        if not self.expiring_slack.dominates(resources):
            raise TransitionError(
                "reservation exceeds the expiring slack"
            )
        self._reserved = self._reserved | resources
        self._slack = self._slack - resources
        self._view = None

    def release(self, resources: ResourceSet) -> None:
        """Return the part of a previously reserved set ahead of ``now``
        to the slack pool.  It must lie inside the reservations (a
        strict subtraction from them, so a release never frees what
        admitted schedules claim); the slack is re-derived."""
        self._reserved = self._reserved - resources.truncate_before(self._now)
        self._recommit()

    def advance_to(self, t: Time) -> None:
        """Move the clock forward and forget the past.

        Every schedule finished by ``t`` retires, and its label becomes
        unknown.  When one retires, availability, reservations and the
        slack lose everything before ``t``, which has expired, and the
        committed view is cut there from then on.  A move
        that retires nothing only sets ``now``; :meth:`can_admit` clips
        newcomers to start at ``now``, so an uncut past backs nothing."""
        if t < self._now:
            raise TransitionError(f"cannot move time backwards: {t} < {self._now}")
        self._now = t
        finishing = self._finishing
        retired = False
        while finishing and finishing[0][1] <= t:
            _, _, label = heapq.heappop(finishing)
            schedule = self._schedules.get(label)
            if schedule is not None and schedule.finish_time <= t:
                del self._schedules[label]
                retired = True
        if retired:
            self._available = self._available.truncate_before(t)
            self._reserved = self._reserved.truncate_before(t)
            self._slack = self._slack.truncate_before(t)
            self._cut = t
            self._view = None

    # ------------------------------------------------------------------
    # Admission (Theorem 4)
    # ------------------------------------------------------------------
    def can_admit(
        self,
        requirement: ComplexRequirement | ConcurrentRequirement,
        *,
        exhaustive: bool = False,
    ) -> AdmissionDecision:
        """Check a newcomer against the expiring slack, without committing."""
        requirement = _as_concurrent(requirement)
        label = _requirement_label(requirement)
        if deadline_passed(requirement, self._now):
            decision = AdmissionDecision(
                False, label, reason="deadline has already passed (t >= d)"
            )
            _count_decision(decision, "deadline-passed")
            return decision
        effective = requirement
        if requirement.start < self._now:
            # The computation cannot consume resources in the past; clip
            # its window to (now, d).
            effective = clip_start(requirement, self._now)
        registry = get_registry()
        started = registry.now() if registry.enabled else 0
        schedule = find_concurrent_schedule(
            self.expiring_slack, effective, exhaustive=exhaustive, align=self._align
        )
        if registry.enabled:
            registry.histogram(
                "rota_admission_check_seconds",
                "Theorem-4 slack-check latency (find_concurrent_schedule)",
            ).observe(registry.now() - started)
        if schedule is None:
            decision = AdmissionDecision(
                False,
                label,
                reason="expiring slack cannot satisfy the complex requirement",
            )
            _count_decision(decision, "insufficient-slack")
            return decision
        decision = AdmissionDecision(True, label, schedule=schedule)
        _count_decision(decision, "")
        return decision

    def admit(
        self,
        requirement: ComplexRequirement | ConcurrentRequirement,
        *,
        exhaustive: bool = False,
    ) -> AdmissionDecision:
        """Computation-accommodation rule: commit the newcomer's schedule.

        On success the newcomer's claimed consumption joins the committed
        path, so later admissions see only the remaining slack.  The
        commit writes the slack only: the schedule is the claim the
        committed view sums.
        """
        decision = self.can_admit(requirement, exhaustive=exhaustive)
        if decision.admitted and decision.schedule is not None:
            schedule = decision.schedule
            self._slack = self._slack - schedule.consumption()
            self._view = None
            key = _unique_label(decision.label, self._schedules)
            self._schedules[key] = schedule
            finish = schedule.finish_time
            heapq.heappush(self._finishing, (float_key(finish), finish, key))
        return decision

    def withdraw(self, label: str) -> None:
        """Computation-leave rule: a computation that has not started by
        ``now`` may leave; its claimed resources return to the slack pool.
        Callers advance the controller to the leave's time first."""
        schedule = self._schedules.get(label)
        if schedule is None:
            raise TransitionError(f"no admitted computation labelled {label!r}")
        started = any(
            s.requirement.start < self._now for s in schedule.schedules
        )
        if started:
            raise TransitionError(
                f"computation {label!r} has already started (t >= s); "
                "the paper's leave rule requires t < s"
            )
        del self._schedules[label]
        self._recommit()


def _count_decision(decision: AdmissionDecision, reason_key: str) -> None:
    """Tally one Theorem-4 verdict (reasons as a compact label vocabulary,
    not the human-readable sentences, to keep series cardinality fixed)."""
    registry = get_registry()
    if not registry.enabled:
        return
    registry.counter(
        "rota_admission_decisions_total",
        "Theorem-4 admission verdicts by outcome and refusal reason",
        labels=("outcome", "reason"),
    ).inc(
        outcome="admitted" if decision.admitted else "refused",
        reason=reason_key,
    )


def _as_concurrent(
    requirement: ComplexRequirement | ConcurrentRequirement,
) -> ConcurrentRequirement:
    if isinstance(requirement, ConcurrentRequirement):
        return requirement
    return ConcurrentRequirement((requirement,), requirement.window)


def deadline_passed(requirement: ConcurrentRequirement, now: Time) -> bool:
    """Whether some component's deadline is at or before ``now``: too late
    to decide on, since :func:`clip_start` would leave that component no
    window.  Components may close before the requirement's own deadline,
    so its outer deadline alone does not say."""
    for part in requirement.components:
        if part.deadline <= now:
            return True
    return False


def clip_start(
    requirement: ConcurrentRequirement, now: Time
) -> ConcurrentRequirement:
    """``requirement`` with every window clipped to start no earlier than
    ``now`` — the executable form of "time already spent is charged
    against the deadline".  Used here for arrivals whose declared start
    lies in the past, and by the service front door
    (:mod:`repro.service`) to charge queueing delay before the exact
    Theorem-4 check runs.  The deadline never moves; only the usable
    window shrinks, so a check on the clipped requirement is exactly the
    check a punctual arrival at ``now`` would get.

    Callers first rule out :func:`deadline_passed`: with every component
    deadline after ``now``, each clipped window is non-empty and lies
    inside ``(now, deadline)``, so the clip is assembled from parts the
    requirement already validated, with no second validation pass.  It
    is the object the validating constructors build
    (:func:`_reference_clip_start`): a fresh :class:`Demands` copy per
    phase and a fresh :class:`Interval` per window, so no two
    requirements share a part a checkpoint would pickle once, and
    ``max()``'s operand on a tie (the component's start over an equal
    ``now`` of another numeric type).  The cached demand totals carry
    over; clipping leaves the phases as they are."""
    components = []
    for part in requirement.components:
        start = part.start
        clipped = _new(ComplexRequirement)
        clipped._phases = tuple([Demands(phase) for phase in part.phases])
        clipped._window = trusted_interval(
            now if now > start else start, part.deadline
        )
        clipped._label = part.label
        total = getattr(part, "_total", None)
        if total is not None:
            clipped._total = total
        components.append(clipped)
    whole = _new(ConcurrentRequirement)
    whole._components = tuple(components)
    whole._window = trusted_interval(now, requirement.deadline)
    total = getattr(requirement, "_total", None)
    if total is not None:
        whole._total = total
    return whole


def _reference_clip_start(
    requirement: ConcurrentRequirement, now: Time
) -> ConcurrentRequirement:
    """:func:`clip_start` through the validating constructors — the
    oracle the trusted assembly is pinned to."""
    window = Interval(now, requirement.deadline)
    components = tuple(
        ComplexRequirement(
            part.phases,
            Interval(max(part.start, now), part.deadline),
            label=part.label,
        )
        for part in requirement.components
    )
    return ConcurrentRequirement(components, window)


def _requirement_label(requirement: ConcurrentRequirement) -> str:
    labels = [part.label for part in requirement.components if part.label]
    return labels[0].split("[")[0] if labels else "computation"


def _unique_label(label: str, existing: Dict[str, ConcurrentSchedule]) -> str:
    """Smallest ``label#N`` not yet scheduled.

    Derived from the controller's own table, never from process-global
    state: a counter shared across controllers would make labels depend
    on every admission the *process* ever made, not the controller —
    untestable in isolation and unstable across enclave-parallel runs.
    """
    if label not in existing:
        return label
    ordinal = 2
    while f"{label}#{ordinal}" in existing:
        ordinal += 1
    return f"{label}#{ordinal}"
