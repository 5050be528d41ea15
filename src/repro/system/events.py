"""Events of the open-system simulation.

The paper's open-system dynamics are three instantaneous transition
rules: resources join (with a pre-declared leave time inside their term
intervals), computations arrive seeking accommodation, and
not-yet-started computations may leave.  Each becomes an event type here.
Events are plain data: two events are equal when every field is.  The
simulator that schedules them orders them by time and breaks ties by
its own schedule() call order, so a run's tie order is fixed by the run
alone, never by what else ran in the same process.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from repro.computation.requirements import (
    ComplexRequirement,
    ConcurrentRequirement,
)
from repro.errors import FaultInjectionError
from repro.intervals.interval import Time
from repro.resources.located_type import Node
from repro.resources.resource_set import ResourceSet


@dataclass(frozen=True)
class _Timed:
    time: Time


@dataclass(frozen=True)
class ResourceJoinEvent(_Timed):
    """``Theta_join`` enters the system at ``time``.

    Leave times are implicit: every term's interval states when the
    resource disappears again (the paper has no separate leave rule).
    """

    resources: ResourceSet = None  # type: ignore[assignment]


@dataclass(frozen=True)
class ComputationArrivalEvent(_Timed):
    """A computation ``(Lambda, s, d)`` asks to be accommodated."""

    requirement: ConcurrentRequirement = None  # type: ignore[assignment]
    label: str = ""


@dataclass(frozen=True)
class ComputationLeaveEvent(_Timed):
    """An accommodated computation withdraws (valid only while ``t < s``)."""

    label: str = ""


@dataclass(frozen=True)
class ResourceRevocationEvent(_Timed):
    """Capacity vanishes at ``time`` *despite* its declared interval.

    This violates the paper's model (leave times are pre-declared at join
    time); the robustness experiments inject it deliberately to measure
    how much deadline assurance depends on the pre-declaration assumption.
    """

    resources: ResourceSet = None  # type: ignore[assignment]


@dataclass(frozen=True)
class NodeCrashEvent(_Timed):
    """Every resource located at ``location`` vanishes *now*.

    A crash is the harshest promise violation: unlike a revocation (which
    names specific terms), a crash wipes the node's CPU-like resources and
    every link touching the node, regardless of their declared intervals.
    """

    location: "Node" = None  # type: ignore[assignment]


@dataclass(frozen=True)
class RateDegradationEvent(_Timed):
    """A straggler fault: from ``time`` on, resources located at
    ``location`` deliver only ``factor`` of their declared rate.

    ``factor`` is the *surviving* fraction in [0, 1); the complement of
    the declared future capacity is lost, unannounced.
    """

    location: "Node" = None  # type: ignore[assignment]
    factor: object = None  # Fraction | float


@dataclass(frozen=True)
class RecoveryOfferEvent(_Timed):
    """Internal: re-offer a promise-violation victim to admission.

    Scheduled by the simulator's recovery pipeline with capped exponential
    backoff between attempts; never part of user-authored workloads.
    """

    label: str = ""


@dataclass(frozen=True)
class PartitionStartEvent(_Timed):
    """The network severs ``links`` at ``time``.

    Messages across a severed link die with fate ``"severed"`` until the
    matching :class:`PartitionHealEvent`; an enclave on the far side runs
    in degraded autonomy on its local allotment (see
    :mod:`repro.faults.netfaults`).  The event mirrors a window the
    network model already knows statically — putting it on the virtual
    clock makes the partition journaled, replayable, and visible to the
    admission policy at the instant it bites.
    """

    name: str = ""
    #: undirected (endpoint, endpoint) pairs the partition cuts
    links: tuple = ()


@dataclass(frozen=True)
class PartitionHealEvent(_Timed):
    """The partition named ``name`` heals: ``links`` carry again.

    On heal the policy reconciles the partitioned sides' accounts
    (expired leases settled, traces merged) — the simulator records
    whatever reconciliation notes the policy reports.
    """

    name: str = ""
    links: tuple = ()


Event = Union[
    ResourceJoinEvent,
    ComputationArrivalEvent,
    ComputationLeaveEvent,
    ResourceRevocationEvent,
    NodeCrashEvent,
    RateDegradationEvent,
    RecoveryOfferEvent,
    PartitionStartEvent,
    PartitionHealEvent,
]


def arrival(
    time: Time,
    requirement: ConcurrentRequirement | ComplexRequirement,
    label: str = "",
) -> ComputationArrivalEvent:
    """Convenience constructor accepting either requirement level."""
    if isinstance(requirement, ComplexRequirement):
        requirement = ConcurrentRequirement((requirement,), requirement.window)
    if not label:
        label = requirement.components[0].label or f"arrival@{time}"
    return ComputationArrivalEvent(time=time, requirement=requirement, label=label)


def resource_join(time: Time, resources: ResourceSet) -> ResourceJoinEvent:
    return ResourceJoinEvent(time=time, resources=resources)


def node_crash(time: Time, location: Node | str) -> NodeCrashEvent:
    """Convenience constructor accepting a node or its name."""
    if isinstance(location, str):
        location = Node(location)
    return NodeCrashEvent(time=time, location=location)


def rate_degradation(
    time: Time, location: Node | str, factor
) -> RateDegradationEvent:
    """Convenience constructor; ``factor`` is the surviving rate fraction."""
    if isinstance(location, str):
        location = Node(location)
    if not 0 <= float(factor) < 1:
        raise FaultInjectionError(
            f"degradation factor must lie in [0, 1), got {factor!r}"
        )
    return RateDegradationEvent(time=time, location=location, factor=factor)


def _partition_links(links) -> tuple:
    checked = []
    for pair in links:
        src, dst = pair
        if src == dst:
            raise FaultInjectionError(
                f"partition link must join two endpoints, got {pair!r}"
            )
        checked.append((str(src), str(dst)))
    if not checked:
        raise FaultInjectionError("partition must sever at least one link")
    return tuple(checked)


def partition_start(time: Time, name: str, links) -> PartitionStartEvent:
    """Convenience constructor validating the severed link pairs."""
    return PartitionStartEvent(
        time=time, name=name, links=_partition_links(links)
    )


def partition_heal(time: Time, name: str, links) -> PartitionHealEvent:
    return PartitionHealEvent(
        time=time, name=name, links=_partition_links(links)
    )
