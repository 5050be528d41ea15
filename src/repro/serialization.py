"""JSON-safe (de)serialisation of ROTA values.

Admission decisions cross process boundaries in any real deployment — a
controller answers remote requests about remote resources — so terms,
requirements, and witness schedules need a stable wire form.  The format
is plain dicts/lists/strings/numbers:

* exact rationals (``fractions.Fraction``) serialise as ``"p/q"`` strings
  and come back exact;
* ``math.inf`` serialises as the string ``"inf"``;
* every composite carries a ``"kind"`` tag so heterogeneous collections
  round-trip without external schema.

Only values, never behaviour: cost models and policies are code and stay
out of the wire format.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Any, Mapping

from repro.computation.demands import Demands
from repro.computation.interaction import SegmentedRequirement, Wait
from repro.computation.requirements import (
    ComplexRequirement,
    ConcurrentRequirement,
    SimpleRequirement,
)
from repro.errors import RotaError
from repro.intervals.interval import Interval, Time
from repro.resources.located_type import Link, LocatedType, Node
from repro.resources.resource_set import ResourceSet
from repro.resources.term import ResourceTerm


class SerializationError(RotaError, ValueError):
    """Malformed wire data."""


# ----------------------------------------------------------------------
# Scalars
# ----------------------------------------------------------------------

def time_to_wire(value: Time) -> Any:
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, float) and math.isinf(value):
        return "inf"
    return value


def time_from_wire(value: Any) -> Time:
    if isinstance(value, str):
        if value == "inf":
            return math.inf
        if "/" in value:
            numerator, _, denominator = value.partition("/")
            try:
                return Fraction(int(numerator), int(denominator))
            except (ValueError, ZeroDivisionError) as exc:
                raise SerializationError(f"bad rational {value!r}") from exc
        raise SerializationError(f"bad time value {value!r}")
    if isinstance(value, (int, float)):
        return value
    raise SerializationError(f"bad time value {value!r}")


def _kind(data: Any) -> Any:
    """The ``"kind"`` tag of a wire object; anything else is malformed."""
    if not isinstance(data, Mapping):
        raise SerializationError(
            f"expected a wire object, got {type(data).__name__}"
        )
    return data.get("kind")


def _name(data: Mapping[str, Any], key: str) -> str:
    name = data[key]
    if not isinstance(name, str):
        raise SerializationError(f"location {key} must be a string, got {name!r}")
    return name


# ----------------------------------------------------------------------
# Locations and located types
# ----------------------------------------------------------------------

def location_to_wire(location: Node | Link) -> dict:
    if isinstance(location, Node):
        return {"kind": "node", "name": location.name}
    return {
        "kind": "link",
        "source": location.source.name,
        "destination": location.destination.name,
    }


def location_from_wire(data: Mapping[str, Any]) -> Node | Link:
    kind = _kind(data)
    if kind == "node":
        return Node(_name(data, "name"))
    if kind == "link":
        return Link(
            Node(_name(data, "source")), Node(_name(data, "destination"))
        )
    raise SerializationError(f"unknown location kind {kind!r}")


def ltype_to_wire(ltype: LocatedType) -> dict:
    return {
        "kind": "ltype",
        "resource": ltype.kind,
        "location": location_to_wire(ltype.location),
    }


def ltype_from_wire(data: Mapping[str, Any]) -> LocatedType:
    kind = _kind(data)
    if kind != "ltype":
        raise SerializationError(f"expected ltype, got {kind!r}")
    return LocatedType(data["resource"], location_from_wire(data["location"]))


# ----------------------------------------------------------------------
# Intervals, terms, sets
# ----------------------------------------------------------------------

def interval_to_wire(window: Interval) -> dict:
    return {
        "kind": "interval",
        "start": time_to_wire(window.start),
        "end": time_to_wire(window.end),
    }


def interval_from_wire(data: Mapping[str, Any]) -> Interval:
    kind = _kind(data)
    if kind != "interval":
        raise SerializationError(f"expected interval, got {kind!r}")
    return Interval(time_from_wire(data["start"]), time_from_wire(data["end"]))


def term_to_wire(item: ResourceTerm) -> dict:
    return {
        "kind": "term",
        "rate": time_to_wire(item.rate),
        "ltype": ltype_to_wire(item.ltype),
        "window": interval_to_wire(item.window),
    }


def term_from_wire(data: Mapping[str, Any]) -> ResourceTerm:
    kind = _kind(data)
    if kind != "term":
        raise SerializationError(f"expected term, got {kind!r}")
    return ResourceTerm(
        time_from_wire(data["rate"]),
        ltype_from_wire(data["ltype"]),
        interval_from_wire(data["window"]),
    )


def resource_set_to_wire(resources: ResourceSet) -> dict:
    return {
        "kind": "resource_set",
        "terms": [term_to_wire(t) for t in resources.terms()],
    }


def resource_set_from_wire(data: Mapping[str, Any]) -> ResourceSet:
    kind = _kind(data)
    if kind != "resource_set":
        raise SerializationError(f"expected resource_set, got {kind!r}")
    return ResourceSet(term_from_wire(t) for t in data["terms"])


# ----------------------------------------------------------------------
# Demands and requirements
# ----------------------------------------------------------------------

def demands_to_wire(demands: Demands) -> dict:
    return {
        "kind": "demands",
        "amounts": [
            {"ltype": ltype_to_wire(lt), "quantity": time_to_wire(q)}
            for lt, q in demands.items()
        ],
    }


def demands_from_wire(data: Mapping[str, Any]) -> Demands:
    kind = _kind(data)
    if kind != "demands":
        raise SerializationError(f"expected demands, got {kind!r}")
    return Demands(
        {
            ltype_from_wire(entry["ltype"]): time_from_wire(entry["quantity"])
            for entry in data["amounts"]
        }
    )


def requirement_to_wire(
    requirement: SimpleRequirement
    | ComplexRequirement
    | ConcurrentRequirement
    | SegmentedRequirement,
) -> dict:
    if isinstance(requirement, SimpleRequirement):
        return {
            "kind": "simple_requirement",
            "demands": demands_to_wire(requirement.demands),
            "window": interval_to_wire(requirement.window),
        }
    if isinstance(requirement, ComplexRequirement):
        return {
            "kind": "complex_requirement",
            "label": requirement.label,
            "window": interval_to_wire(requirement.window),
            "phases": [demands_to_wire(p) for p in requirement.phases],
        }
    if isinstance(requirement, ConcurrentRequirement):
        return {
            "kind": "concurrent_requirement",
            "window": interval_to_wire(requirement.window),
            "components": [
                requirement_to_wire(part) for part in requirement.components
            ],
        }
    if isinstance(requirement, SegmentedRequirement):
        return {
            "kind": "segmented_requirement",
            "label": requirement.label,
            "window": interval_to_wire(requirement.window),
            "segments": [
                [demands_to_wire(p) for p in segment]
                for segment in requirement.segments
            ],
            "waits": [
                {
                    "min_delay": time_to_wire(w.min_delay),
                    "max_delay": time_to_wire(w.max_delay),
                    "reason": w.reason,
                }
                for w in requirement.waits
            ],
        }
    raise SerializationError(f"unsupported requirement {requirement!r}")


def requirement_from_wire(data: Mapping[str, Any]):
    kind = _kind(data)
    if kind == "simple_requirement":
        return SimpleRequirement(
            demands_from_wire(data["demands"]), interval_from_wire(data["window"])
        )
    if kind == "complex_requirement":
        return ComplexRequirement(
            [demands_from_wire(p) for p in data["phases"]],
            interval_from_wire(data["window"]),
            label=data.get("label", ""),
        )
    if kind == "concurrent_requirement":
        components = tuple(
            requirement_from_wire(part) for part in data["components"]
        )
        return ConcurrentRequirement(components, interval_from_wire(data["window"]))
    if kind == "segmented_requirement":
        return SegmentedRequirement(
            [
                [demands_from_wire(p) for p in segment]
                for segment in data["segments"]
            ],
            [
                Wait(
                    time_from_wire(w["min_delay"]),
                    time_from_wire(w["max_delay"]),
                    w.get("reason", "reply"),
                )
                for w in data["waits"]
            ],
            interval_from_wire(data["window"]),
            label=data.get("label", ""),
        )
    raise SerializationError(f"unknown requirement kind {kind!r}")


# ----------------------------------------------------------------------
# Schedules (export only: witnesses are produced, not consumed)
# ----------------------------------------------------------------------

def schedule_to_wire(schedule) -> dict:
    """A witness schedule as plain data: per-phase windows and claims."""
    return {
        "kind": "schedule",
        "label": schedule.requirement.label,
        "finish": time_to_wire(schedule.finish_time),
        "breakpoints": [time_to_wire(b) for b in schedule.breakpoints],
        "phases": [
            {
                "index": assignment.index,
                "window": interval_to_wire(assignment.window),
                "claims": [
                    {
                        "ltype": ltype_to_wire(lt),
                        "quantity": time_to_wire(
                            profile.integral(assignment.window)
                        ),
                    }
                    for lt, profile in assignment.consumption.items()
                ],
            }
            for assignment in schedule.assignments
        ],
    }
