"""CyberOrgs-style resource encapsulations (paper Section VI).

The paper's closing argument: ROTA's reasoning cost is high in general,
but "the context in which we hope to use ROTA is that of resource
encapsulations of the type defined by the CyberOrgs model, where the
reasoning only needs to concern itself with resources available inside
the encapsulation".

:class:`Enclave` realises that: a tree of resource encapsulations, each
owning a slice of its parent's resources and running its *own* admission
controller over that slice only.  Key invariants:

* **conservation** — a child's allotment is carved out of the parent's
  expiring slack (the parent commits it like any other admission), so the
  sum of all enclaves' resources never exceeds the root's;
* **isolation** — admission inside an enclave consults only the enclave's
  own resources; siblings cannot interfere, and reasoning cost scales
  with the enclave, not with the system (measured in
  ``benchmarks/bench_encapsulation.py``);
* **assurance composition** — a computation admitted by any enclave is
  still globally assured, because every enclave's resources are disjoint
  slices of real root resources.

Enclaves support the CyberOrgs primitives the paper references:
``spawn`` (create a child with an allotment), ``dissolve`` (return a
child's unused slack to the parent), and ``migrate`` (move an admitted,
not-yet-started computation to a sibling enclave, re-deciding admission
there).
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional

from repro.computation.requirements import (
    ComplexRequirement,
    ConcurrentRequirement,
)
from repro.decision.admission import AdmissionController, AdmissionDecision
from repro.errors import RotaError, TransitionError
from repro.intervals.interval import Time
from repro.resources.resource_set import ResourceSet


class EnclaveError(RotaError, ValueError):
    """Violation of the enclave discipline (unknown child, over-allotment,
    migrating a started computation, ...)."""


class Enclave:
    """One resource encapsulation: a named slice of the system.

    The root enclave is built with :meth:`root`; children are created with
    :meth:`spawn`.  Every enclave wraps its own
    :class:`~repro.decision.admission.AdmissionController`.
    """

    def __init__(
        self,
        name: str,
        controller: AdmissionController,
        parent: Optional["Enclave"] = None,
    ) -> None:
        # Default names derive from the enclave tree itself, never from a
        # process-global counter: two enclaves built in different
        # processes (or different enclave-parallel shards) with the same
        # tree state must get the same name.
        if not name:
            if parent is None:
                name = "enclave-root"
            else:
                ordinal = len(parent._children) + 1
                while f"enclave-{ordinal}" in parent._children:
                    ordinal += 1
                name = f"enclave-{ordinal}"
        self.name = name
        self._controller = controller
        self._parent = parent
        self._children: Dict[str, Enclave] = {}
        self._dissolved = False

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def root(
        cls,
        resources: ResourceSet,
        *,
        name: str = "root",
        now: Time = 0,
        align: Time | None = None,
    ) -> "Enclave":
        """The system-wide encapsulation owning all known resources."""
        return cls(name, AdmissionController(resources, now=now, align=align))

    def spawn(self, name: str, allotment: ResourceSet) -> "Enclave":
        """Create a child enclave owning ``allotment``.

        The allotment is claimed from this enclave's expiring slack —
        spawning is an admission decision, so a parent cannot hand out
        resources it has already promised elsewhere.
        """
        self._check_alive()
        if name in self._children:
            raise EnclaveError(f"child {name!r} already exists in {self.name!r}")
        try:
            # Spawning is an admission decision: the allotment is claimed
            # from this enclave's expiring slack.
            self._controller.reserve(allotment)
        except TransitionError:
            raise EnclaveError(
                f"allotment for {name!r} exceeds the expiring slack of "
                f"{self.name!r}"
            ) from None
        child = Enclave(
            name,
            AdmissionController(
                allotment, now=self._controller.now, align=self._controller.align
            ),
            parent=self,
        )
        self._children[name] = child
        return child

    def dissolve(self, name: str) -> ResourceSet:
        """Dissolve a child: its *unclaimed* slack flows back to this
        enclave; resources its admitted computations claimed stay
        committed (their assurance survives the reorganisation).
        Returns the recovered resource set.
        """
        self._check_alive()
        child = self._children.pop(name, None)
        if child is None:
            raise EnclaveError(f"no child {name!r} in {self.name!r}")
        if child._children:
            raise EnclaveError(
                f"dissolve children of {name!r} first (non-empty enclave)"
            )
        recovered = child._controller.expiring_slack
        child._dissolved = True
        # Returning slack = releasing that much of the parent's reservation.
        self._controller.release(recovered)
        return recovered

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def parent(self) -> Optional["Enclave"]:
        return self._parent

    @property
    def children(self) -> tuple["Enclave", ...]:
        return tuple(self._children.values())

    @property
    def controller(self) -> AdmissionController:
        return self._controller

    @property
    def resources(self) -> ResourceSet:
        """Everything this enclave owns (committed or not)."""
        return self._controller.available

    @property
    def slack(self) -> ResourceSet:
        """What this enclave could still promise."""
        return self._controller.expiring_slack

    @property
    def is_root(self) -> bool:
        return self._parent is None

    def child(self, name: str) -> "Enclave":
        try:
            return self._children[name]
        except KeyError:
            raise EnclaveError(f"no child {name!r} in {self.name!r}") from None

    def walk(self) -> Iterator["Enclave"]:
        """This enclave and every descendant, depth first."""
        yield self
        for child in self._children.values():
            yield from child.walk()

    def find(self, name: str) -> Optional["Enclave"]:
        for enclave in self.walk():
            if enclave.name == name:
                return enclave
        return None

    # ------------------------------------------------------------------
    # Admission inside the encapsulation
    # ------------------------------------------------------------------
    def admit(
        self,
        requirement: ComplexRequirement | ConcurrentRequirement,
        *,
        exhaustive: bool = False,
    ) -> AdmissionDecision:
        """Admit against *this enclave's* resources only — the confinement
        that makes the reasoning tractable."""
        self._check_alive()
        return self._controller.admit(requirement, exhaustive=exhaustive)

    def can_admit(
        self,
        requirement: ComplexRequirement | ConcurrentRequirement,
        *,
        exhaustive: bool = False,
    ) -> AdmissionDecision:
        self._check_alive()
        return self._controller.can_admit(requirement, exhaustive=exhaustive)

    def admit_anywhere(
        self, requirement: ComplexRequirement | ConcurrentRequirement
    ) -> Optional["Enclave"]:
        """Try this enclave, then descendants (depth first): the search a
        computation would perform when its own enclave is full.  Returns
        the admitting enclave or None."""
        for enclave in self.walk():
            if enclave.admit(requirement).admitted:
                return enclave
        return None

    def migrate(self, label: str, destination: "Enclave") -> AdmissionDecision:
        """Move a not-yet-started admitted computation to a sibling/other
        enclave: withdraw here (the paper's leave rule, t < s), re-admit
        there.  On rejection the computation is re-admitted locally, so
        the operation is atomic from the caller's perspective.
        """
        self._check_alive()
        destination._check_alive()
        schedule = self._controller.schedule_of(label)
        requirements = tuple(s.requirement for s in schedule.schedules)
        window_start = min(r.start for r in requirements)
        window_end = max(r.deadline for r in requirements)
        from repro.intervals.interval import Interval

        bundle = ConcurrentRequirement(
            requirements, Interval(window_start, window_end)
        )
        self._controller.withdraw(label)
        decision = destination.admit(bundle)
        if not decision.admitted:
            restored = self._controller.admit(bundle)
            if not restored.admitted:  # pragma: no cover - cannot happen:
                # the slack we just returned covers the old schedule
                raise TransitionError(
                    f"failed to restore {label!r} after rejected migration"
                )
        return decision

    # ------------------------------------------------------------------
    def _check_alive(self) -> None:
        if self._dissolved:
            raise EnclaveError(f"enclave {self.name!r} has been dissolved")

    def __repr__(self) -> str:
        return (
            f"Enclave({self.name!r}, children={len(self._children)}, "
            f"admitted={len(self._controller.admitted_labels)})"
        )
