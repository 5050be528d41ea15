"""Persisting event streams: record once, replay anywhere.

The substitution policy (DESIGN.md) replaces the production traces the
paper's setting implies with seeded synthetic generators.  This module
closes the loop: any event stream — generated, hand-written, or captured
from a real system — serialises to JSON Lines and replays bit-identically,
so experiments can be shared as artifacts rather than as (seed, code
version) pairs.

One JSON object per line, tagged by event kind; times and quantities use
the exact wire scalars of :mod:`repro.serialization`.  Records carry a
``format_version`` so future readers can reject traces they do not
understand, and path writes are atomic (temp file + fsync + rename, via
:func:`repro.system.checkpoint.atomic_writer`) so a crash mid-save can
never leave a torn, half-valid trace that replays as a shorter one.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import IO, Iterable, List, Mapping, Union

from repro.serialization import (
    SerializationError,
    requirement_from_wire,
    requirement_to_wire,
    resource_set_from_wire,
    resource_set_to_wire,
    time_from_wire,
    time_to_wire,
)
from repro.resources.located_type import Node
from repro.system.checkpoint import atomic_writer
from repro.system.events import (
    ComputationArrivalEvent,
    ComputationLeaveEvent,
    Event,
    NodeCrashEvent,
    PartitionHealEvent,
    PartitionStartEvent,
    RateDegradationEvent,
    ResourceJoinEvent,
    ResourceRevocationEvent,
    partition_heal,
    partition_start,
    rate_degradation,
)

PathLike = Union[str, Path]

#: Version stamped on every wire record; bump on incompatible changes.
EVENT_FORMAT_VERSION = 1

#: Keys each event kind must carry (beyond the ``event`` tag itself).
_REQUIRED_KEYS = {
    "resource_join": ("time", "resources"),
    "resource_revocation": ("time", "resources"),
    "computation_arrival": ("time", "requirement"),
    "computation_leave": ("time", "label"),
    "node_crash": ("time", "location"),
    "rate_degradation": ("time", "location", "factor"),
    "partition_start": ("time", "name", "links"),
    "partition_heal": ("time", "name", "links"),
}


def event_to_wire(event: Event) -> dict:
    """One event as a JSON-safe dict."""
    if isinstance(event, ResourceJoinEvent):
        data = {
            "event": "resource_join",
            "time": time_to_wire(event.time),
            "resources": resource_set_to_wire(event.resources),
        }
    elif isinstance(event, ResourceRevocationEvent):
        data = {
            "event": "resource_revocation",
            "time": time_to_wire(event.time),
            "resources": resource_set_to_wire(event.resources),
        }
    elif isinstance(event, ComputationArrivalEvent):
        data = {
            "event": "computation_arrival",
            "time": time_to_wire(event.time),
            "label": event.label,
            "requirement": requirement_to_wire(event.requirement),
        }
    elif isinstance(event, ComputationLeaveEvent):
        data = {
            "event": "computation_leave",
            "time": time_to_wire(event.time),
            "label": event.label,
        }
    elif isinstance(event, NodeCrashEvent):
        data = {
            "event": "node_crash",
            "time": time_to_wire(event.time),
            "location": event.location.name,
        }
    elif isinstance(event, RateDegradationEvent):
        data = {
            "event": "rate_degradation",
            "time": time_to_wire(event.time),
            "location": event.location.name,
            "factor": time_to_wire(event.factor),
        }
    elif isinstance(event, (PartitionStartEvent, PartitionHealEvent)):
        data = {
            "event": (
                "partition_start"
                if isinstance(event, PartitionStartEvent)
                else "partition_heal"
            ),
            "time": time_to_wire(event.time),
            "name": event.name,
            "links": [list(pair) for pair in event.links],
        }
    else:
        raise SerializationError(f"unsupported event {event!r}")
    data["format_version"] = EVENT_FORMAT_VERSION
    return data


def event_from_wire(data: dict) -> Event:
    if not isinstance(data, Mapping):
        raise SerializationError(f"expected an event object, got {data!r}")
    kind = data.get("event")
    if kind not in _REQUIRED_KEYS:
        raise SerializationError(f"unknown event kind {kind!r}")
    version = data.get("format_version", 1)  # unstamped = legacy v1
    if not isinstance(version, int) or version < 1:
        raise SerializationError(
            f"{kind}: bad format_version {version!r}"
        )
    if version > EVENT_FORMAT_VERSION:
        raise SerializationError(
            f"{kind}: format_version {version} is newer than supported "
            f"{EVENT_FORMAT_VERSION}; refusing to guess at its meaning"
        )
    missing = [key for key in _REQUIRED_KEYS[kind] if key not in data]
    if missing:
        raise SerializationError(
            f"{kind} record is missing required key(s): "
            + ", ".join(repr(key) for key in missing)
        )
    time = time_from_wire(data["time"])
    if kind == "resource_join":
        return ResourceJoinEvent(
            time=time, resources=resource_set_from_wire(data["resources"])
        )
    if kind == "resource_revocation":
        return ResourceRevocationEvent(
            time=time, resources=resource_set_from_wire(data["resources"])
        )
    if kind == "computation_arrival":
        label = data.get("label", "")
        if not isinstance(label, str):
            raise SerializationError(
                f"{kind}: label must be a string, got {label!r}"
            )
        return ComputationArrivalEvent(
            time=time,
            requirement=requirement_from_wire(data["requirement"]),
            label=label,
        )
    if kind == "computation_leave":
        return ComputationLeaveEvent(time=time, label=data["label"])
    if kind == "node_crash":
        return NodeCrashEvent(time=time, location=Node(data["location"]))
    if kind in ("partition_start", "partition_heal"):
        links = data["links"]
        if not isinstance(links, list) or any(
            not isinstance(pair, list) or len(pair) != 2 for pair in links
        ):
            raise SerializationError(
                f"{kind}: links must be a list of [src, dst] pairs, "
                f"got {links!r}"
            )
        make = partition_start if kind == "partition_start" else partition_heal
        return make(time, data["name"], [tuple(pair) for pair in links])
    return rate_degradation(
        time, data["location"], time_from_wire(data["factor"])
    )


def save_events(events: Iterable[Event], destination: PathLike | IO[str]) -> int:
    """Write events as JSON Lines; returns the count written."""
    count = 0

    def write(handle: IO[str]) -> int:
        written = 0
        for event in events:
            handle.write(json.dumps(event_to_wire(event)))
            handle.write("\n")
            written += 1
        return written

    if hasattr(destination, "write"):
        return write(destination)  # type: ignore[arg-type]
    with atomic_writer(Path(destination)) as handle:  # type: ignore[arg-type]
        count = write(handle)
    return count


def _parse_line(line: str, line_number: int) -> Event:
    """Decode one trace line, naming the line in any failure."""
    try:
        data = json.loads(line)
    except json.JSONDecodeError as exc:
        raise SerializationError(
            f"line {line_number}: invalid JSON"
        ) from exc
    try:
        return event_from_wire(data)
    except SerializationError as exc:
        raise SerializationError(f"line {line_number}: {exc}") from exc


def load_events(source: PathLike | IO[str]) -> List[Event]:
    """Read a JSON Lines event stream, preserving order."""

    def read(handle: IO[str]) -> List[Event]:
        out: List[Event] = []
        for line_number, line in enumerate(handle, 1):
            line = line.strip()
            if line:
                out.append(_parse_line(line, line_number))
        return out

    if hasattr(source, "read"):
        return read(source)  # type: ignore[arg-type]
    with open(source) as handle:  # type: ignore[arg-type]
        return read(handle)
