"""Semantic well-formedness checks for ROTA input documents.

``repro-lint spec FILE...`` screens the machine-readable inputs of the
toolchain *before* any simulation or admission work touches them —
the same ahead-of-time stance ROTA itself takes toward computations
(PAPER.md, Theorems 1–4): decide on the spec, not mid-flight.

Recognised documents (dispatch on structure / ``"kind"``):

* **check requests** — ``{"resources": ..., "requirement": ...}`` as fed
  to ``repro check`` (wire format of :mod:`repro.serialization`);
* **scenarios** — ``{"kind": "scenario", "horizon": ..., "events": [...]}``
  bundles with optional ``initial_resources`` and qualitative
  ``temporal_constraints``;
* **event traces** — ``*.jsonl`` files in the
  :mod:`repro.workloads.persistence` wire format;
* **fault plans** — ``{"kind": "fault_plan", "seed": ..., ...}``;
* **service configs** — ``{"kind": "service_config", "max_queue": ...,
  ...}`` front-door overload-protection parameters
  (:class:`repro.service.ServiceConfig`);
* **formulas** — ``{"kind": "formula", "formula": {"op": ...}}`` trees in
  ROTA syntax (Section V);
* **temporal specs** — ``{"kind": "temporal_spec", "constraints": [...]}``
  pure qualitative Allen constraint networks;
* bare ``resource_set`` / ``*_requirement`` wire objects.

The semantic battery: interval sanity, Allen path-consistency of the
temporal constraint network (:class:`repro.intervals.algebra
.IntervalNetwork`) with the *offending interval pair named*, vacuous and
contradictory deadline constraints, located-type/unit consistency of
resource terms, and a Theorem-1 style necessary-condition screen
(demand must not exceed what the window can possibly supply).
"""

from __future__ import annotations

import json
import math
from dataclasses import replace
from itertools import combinations
from pathlib import Path
from typing import (
    Any, Callable, Dict, Iterable, List, Mapping, Optional, Tuple,
)

from repro.analysis.lint.engine import Finding
from repro.computation.interaction import SegmentedRequirement
from repro.decision.screen import requirement_demands, supply_shortfall
from repro.errors import (
    InvalidComputationError,
    InvalidIntervalError,
    InvalidTermError,
    RotaError,
)
from repro.intervals.algebra import NONE, IntervalNetwork
from repro.intervals.interval import Interval
from repro.intervals.relations import Relation, relate
from repro.serialization import (
    SerializationError,
    interval_from_wire,
    requirement_from_wire,
    resource_set_from_wire,
    time_from_wire,
)

#: Rule catalogue of the spec checker (ids -> one-line description).
SPEC_RULES: Dict[str, str] = {
    "spec-syntax": "document is not a well-formed ROTA spec",
    "spec-interval": "an interval is insane (start > end, NaN, +inf start)",
    "spec-located-type": "located types are inconsistent (e.g. self-loop link)",
    "spec-missing-resource": (
        "a requirement demands a located type no resource ever provides"
    ),
    "spec-supply-shortfall": (
        "demand exceeds everything the window can supply (Theorem-1 screen)"
    ),
    "spec-deadline-vacuous": (
        "a deadline constraint that can never bind (nothing demanded, "
        "deadline at infinity, or beyond the horizon)"
    ),
    "spec-deadline-contradictory": (
        "a deadline constraint that can never hold (deadline at/before "
        "arrival, empty window with demands, waits exceeding the window)"
    ),
    "spec-temporal-inconsistency": (
        "the temporal constraint network is Allen path-inconsistent"
    ),
    "spec-reference": "a temporal constraint references an unknown interval",
    "spec-fault-plan": "a fault plan's parameters are inconsistent",
    "spec-service": (
        "a front-door service config's parameters are inconsistent "
        "(queue bounds, brownout hysteresis, breaker thresholds)"
    ),
}

#: Keys accepted per document kind (anything else is a spec-syntax finding).
_SCENARIO_KEYS = frozenset(
    {"kind", "name", "horizon", "initial_resources", "events",
     "temporal_constraints"}
)

_RELATION_NAMES: Dict[str, Relation] = {}
for _relation in Relation:
    _RELATION_NAMES[_relation.value] = _relation
    _RELATION_NAMES[_relation.name.lower()] = _relation

#: Cap on trace records examined per file under ``--quick``.
QUICK_TRACE_RECORDS = 200


def _finding(
    path: str,
    rule: str,
    message: str,
    *,
    line: int = 1,
    where: str = "$",
    severity: str = "error",
) -> Finding:
    return Finding(
        path=path,
        line=line,
        column=1,
        rule=rule,
        message=f"{where}: {message}" if where else message,
        severity=severity,
    )


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------

def check_spec_path(path: str | Path, *, quick: bool = False) -> List[Finding]:
    """All findings for one spec file (``.json`` or ``.jsonl``).

    Raises ``OSError`` if the file cannot be read — "the tool could not
    run" is the caller's exit-2 case, not a finding.
    """
    path = Path(path)
    text = path.read_text()
    if path.suffix == ".jsonl":
        return check_trace_text(text, str(path), quick=quick)
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        return [
            _finding(
                str(path), "spec-syntax", f"not valid JSON: {exc.msg}",
                line=exc.lineno, where="",
            )
        ]
    return check_spec_document(document, str(path), quick=quick)


def check_spec_document(
    document: Any, path: str = "<spec>", *, quick: bool = False
) -> List[Finding]:
    """Dispatch a parsed JSON document to the matching checker."""
    if not isinstance(document, Mapping):
        return [
            _finding(path, "spec-syntax",
                     f"expected a JSON object, got {type(document).__name__}")
        ]
    kind = document.get("kind")
    if "resources" in document and "requirement" in document:
        return check_request_document(document, path)
    if kind == "scenario":
        return _check_scenario(document, path, quick=quick)
    if kind == "fault_plan":
        from repro.faults import FaultPlan

        return _check_constructed(
            document, path, FaultPlan, "spec-fault-plan",
            lambda fields: FaultPlan(**fields),
        )
    if kind == "service_config":
        from repro.service import ServiceConfig

        return _check_constructed(
            document, path, ServiceConfig, "spec-service",
            ServiceConfig.from_document,
        )
    if kind == "formula":
        return _check_formula_document(document, path)
    if kind == "temporal_spec":
        return _check_temporal_spec(document, path)
    if kind == "resource_set":
        _, findings = _load(
            resource_set_from_wire, "resource set", document, path, "$"
        )
        return findings
    if isinstance(kind, str) and kind.endswith("_requirement"):
        requirement, findings = _load(
            requirement_from_wire, "requirement", document, path, "$"
        )
        if requirement is not None:
            findings.extend(_requirement_semantics(requirement, path, "$"))
        return findings
    return [
        _finding(
            path, "spec-syntax",
            f"unrecognised spec document (kind={kind!r}); expected a check "
            "request, scenario, fault_plan, service_config, formula, "
            "temporal_spec, resource_set, or *_requirement",
        )
    ]


# ----------------------------------------------------------------------
# Intervals (wire-level sanity, before construction)
# ----------------------------------------------------------------------

def _interval_wire_findings(data: Any, path: str, where: str) -> List[Finding]:
    """Recursively validate every ``{"kind": "interval"}`` in a subtree."""
    findings: List[Finding] = []
    if isinstance(data, Mapping):
        if data.get("kind") == "interval":
            findings.extend(_one_interval(data, path, where))
        for key, value in data.items():
            if key != "kind":
                findings.extend(
                    _interval_wire_findings(value, path, f"{where}.{key}")
                )
    elif isinstance(data, (list, tuple)):
        for index, value in enumerate(data):
            findings.extend(
                _interval_wire_findings(value, path, f"{where}[{index}]")
            )
    return findings


def _one_interval(data: Mapping[str, Any], path: str, where: str) -> List[Finding]:
    try:
        start = time_from_wire(data["start"])
        end = time_from_wire(data["end"])
    except (KeyError, SerializationError) as exc:
        return [_finding(path, "spec-syntax", f"bad interval: {exc}", where=where)]
    out: List[Finding] = []
    for label, value in (("start", start), ("end", end)):
        if isinstance(value, float) and math.isnan(value):
            out.append(
                _finding(path, "spec-interval",
                         f"interval {label} is NaN", where=where)
            )
    if out:
        return out
    if isinstance(start, float) and math.isinf(start) and start > 0:
        out.append(
            _finding(path, "spec-interval",
                     "interval cannot start at +infinity", where=where)
        )
    elif start > end:
        out.append(
            _finding(
                path, "spec-interval",
                f"interval start {start} exceeds end {end}", where=where,
            )
        )
    return out


# ----------------------------------------------------------------------
# Resource sets and requirements
# ----------------------------------------------------------------------

def _classify_rota_error(
    exc: RotaError, path: str, where: str, *, line: int = 1
) -> Finding:
    rule = "spec-syntax"
    if isinstance(exc, InvalidIntervalError):
        rule = "spec-interval"
    elif isinstance(exc, InvalidTermError) and "link endpoints" in str(exc):
        # Link construction itself rejects a self-loop, so this is where
        # every located-type inconsistency surfaces.
        rule = "spec-located-type"
    elif isinstance(exc, InvalidComputationError) and "window" in str(exc):
        rule = "spec-deadline-contradictory"
    return _finding(path, rule, str(exc), where=where, line=line)


def _load(from_wire, noun: str, data: Any, path: str, where: str):
    """``(value, findings)`` for one wire object; ``value`` is ``None``
    whenever there is a finding."""
    findings = _interval_wire_findings(data, path, where)
    if findings:
        return None, findings
    try:
        return from_wire(data), []
    except RotaError as exc:
        return None, [_classify_rota_error(exc, path, where)]
    except (KeyError, TypeError) as exc:
        return None, [
            _finding(path, "spec-syntax", f"bad {noun}: {exc!r}", where=where)
        ]


def _requirement_semantics(
    requirement,
    path: str,
    where: str,
    *,
    line: int = 1,
    arrival_time=None,
    horizon=None,
) -> List[Finding]:
    """Vacuity/contradiction checks shared by every requirement context."""
    findings: List[Finding] = []
    window = requirement.window
    demands = requirement_demands(requirement)
    total = sum(demands.values(), 0)
    if total == 0:
        findings.append(
            _finding(
                path, "spec-deadline-vacuous",
                "requirement demands nothing; its deadline promise is "
                "vacuously kept", where=where, line=line, severity="warning",
            )
        )
    if isinstance(window.end, float) and math.isinf(window.end):
        findings.append(
            _finding(
                path, "spec-deadline-vacuous",
                "deadline at infinity never binds; this is availability, "
                "not deadline assurance", where=where, line=line,
                severity="warning",
            )
        )
    if arrival_time is not None and window.end <= arrival_time and total > 0:
        findings.append(
            _finding(
                path, "spec-deadline-contradictory",
                f"deadline {window.end} is at or before the arrival time "
                f"{arrival_time}; the computation expires on arrival",
                where=where, line=line,
            )
        )
    if (
        horizon is not None
        and window.end > horizon
        and not (isinstance(window.end, float) and math.isinf(window.end))
    ):
        findings.append(
            _finding(
                path, "spec-deadline-vacuous",
                f"deadline {window.end} lies beyond the horizon {horizon}; "
                "the promise can never be checked before the run ends",
                where=where, line=line, severity="warning",
            )
        )
    if isinstance(requirement, SegmentedRequirement):
        min_wait = sum((w.min_delay for w in requirement.waits), 0)
        if min_wait >= window.duration and total > 0:
            findings.append(
                _finding(
                    path, "spec-deadline-contradictory",
                    f"minimum waits total {min_wait}, which consumes the "
                    f"whole window {window} before any work fits",
                    where=where, line=line,
                )
            )
    return findings


def _coverage_findings(
    requirement, provided, path: str, where: str, *, line: int = 1
) -> List[Finding]:
    demands = requirement_demands(requirement)
    findings: List[Finding] = []
    for ltype in demands:
        if ltype not in provided:
            findings.append(
                _finding(
                    path, "spec-missing-resource",
                    f"demands {ltype} but no resource term or join event "
                    "ever provides that located type; admission can only "
                    "refuse", where=where, line=line,
                )
            )
    return findings


# ----------------------------------------------------------------------
# Check requests
# ----------------------------------------------------------------------

def check_request_document(
    document: Mapping[str, Any], path: str = "<request>"
) -> List[Finding]:
    """Pre-admission screen for a ``repro check`` request document."""
    findings: List[Finding] = []
    resources, resource_findings = _load(
        resource_set_from_wire, "resource set", document["resources"],
        path, "$.resources",
    )
    findings.extend(resource_findings)
    requirement, requirement_findings = _load(
        requirement_from_wire, "requirement", document["requirement"],
        path, "$.requirement",
    )
    findings.extend(requirement_findings)
    if requirement is None:
        return findings
    findings.extend(_requirement_semantics(requirement, path, "$.requirement"))
    if resources is None:
        return findings
    provided = set(resources.located_types)
    findings.extend(
        _coverage_findings(requirement, provided, path, "$.requirement")
    )
    # The Theorem-1 screen itself lives in the decision layer
    # (repro.decision.screen) so the service front door's brownout mode
    # and this linter can never drift apart on what "infeasible" means.
    shortfall = supply_shortfall(resources, requirement)
    if shortfall is not None:
        findings.append(
            _finding(
                path, "spec-supply-shortfall", shortfall,
                where="$.requirement",
            )
        )
    return findings


# ----------------------------------------------------------------------
# Temporal constraint networks (Allen path-consistency)
# ----------------------------------------------------------------------

def _parse_relations(raw: Any, path: str, where: str):
    if not isinstance(raw, (list, tuple)) or not raw:
        return None, [
            _finding(
                path, "spec-syntax",
                "constraint 'relations' must be a non-empty list of Allen "
                "relation names", where=where,
            )
        ]
    relations = []
    findings: List[Finding] = []
    for name in raw:
        key = str(name).strip().lower()
        relation = _RELATION_NAMES.get(key)
        if relation is None:
            findings.append(
                _finding(
                    path, "spec-syntax",
                    f"unknown Allen relation {name!r} (use e.g. 'before', "
                    "'meets', 'during', 'overlaps', 'equals' or the paper's "
                    "symbols 'b', 'm', 'd', 'o', 'eq', ...)", where=where,
                )
            )
        else:
            relations.append(relation)
    if findings:
        return None, findings
    return relations, []


def check_temporal_constraints(
    constraints: Iterable[Mapping[str, Any]],
    concrete: Mapping[object, Interval],
    path: str,
    *,
    where: str = "$.temporal_constraints",
    allow_unknown: bool = False,
) -> List[Finding]:
    """Path-consistency of a qualitative network over named intervals.

    ``concrete`` pins some names to concrete windows (their pairwise
    Allen relations become singleton constraints); the listed
    ``constraints`` add disjunctive edges.  With ``allow_unknown`` the
    constraints may introduce purely abstract nodes; otherwise a name
    outside ``concrete`` is a ``spec-reference`` finding.
    """
    findings: List[Finding] = []
    network = IntervalNetwork()
    usable = {}
    for name, window in concrete.items():
        if window.is_empty:
            findings.append(
                _finding(
                    path, "spec-interval",
                    f"interval {name!r} is empty and cannot participate in "
                    "temporal constraints", where=where,
                )
            )
            continue
        usable[name] = window
        network.add_node(name)
    for a, b in combinations(list(usable), 2):
        network.constrain(a, b, {relate(usable[a], usable[b])})
    parsed_any = False
    for index, constraint in enumerate(constraints):
        at = f"{where}[{index}]"
        if not isinstance(constraint, Mapping) or not {
            "a", "b", "relations"
        } <= set(constraint):
            findings.append(
                _finding(
                    path, "spec-syntax",
                    "temporal constraint must be an object with keys "
                    "'a', 'b', 'relations'", where=at,
                )
            )
            continue
        if not all(
            isinstance(constraint[end], str) for end in ("a", "b")
        ):
            findings.append(
                _finding(
                    path, "spec-syntax",
                    "temporal constraint endpoints 'a' and 'b' must be "
                    "interval names (strings)", where=at,
                )
            )
            continue
        relations, relation_findings = _parse_relations(
            constraint["relations"], path, at
        )
        findings.extend(relation_findings)
        if relations is None:
            continue
        missing = [
            name for name in (constraint["a"], constraint["b"])
            if name not in usable
        ]
        if missing and not allow_unknown:
            for name in missing:
                findings.append(
                    _finding(
                        path, "spec-reference",
                        f"temporal constraint references {name!r}, which "
                        "names no declared interval or labelled arrival",
                        where=at,
                    )
                )
            continue
        network.constrain(constraint["a"], constraint["b"], relations)
        parsed_any = True
    if not parsed_any and len(usable) < 2:
        return findings
    if not network.propagate():
        findings.extend(_inconsistency_findings(network, path, where))
    return findings


def _inconsistency_findings(
    network: IntervalNetwork, path: str, where: str
) -> List[Finding]:
    for node in network.nodes:
        if network.relation(node, node) == NONE:
            return [
                _finding(
                    path, "spec-temporal-inconsistency",
                    f"constraints on interval {node!r} exclude EQUALS with "
                    "itself; no timeline satisfies them", where=where,
                )
            ]
    for a, b in combinations(network.nodes, 2):
        if network.relation(a, b) == NONE:
            return [
                _finding(
                    path, "spec-temporal-inconsistency",
                    "temporal constraint network is path-inconsistent: no "
                    f"Allen relation can hold between {a!r} and {b!r}",
                    where=where,
                )
            ]
    return [  # pragma: no cover - propagate() False implies an empty edge
        _finding(
            path, "spec-temporal-inconsistency",
            "temporal constraint network is path-inconsistent", where=where,
        )
    ]


def _check_temporal_spec(
    document: Mapping[str, Any], path: str
) -> List[Finding]:
    findings: List[Finding] = []
    unknown = set(document) - {"kind", "intervals", "constraints"}
    for key in sorted(unknown):
        findings.append(
            _finding(path, "spec-syntax",
                     f"unknown temporal_spec key {key!r}", where=f"$.{key}")
        )
    concrete: Dict[object, Interval] = {}
    intervals = document.get("intervals", {})
    if not isinstance(intervals, Mapping):
        findings.append(
            _finding(path, "spec-syntax",
                     "'intervals' must map names to interval objects",
                     where="$.intervals")
        )
        intervals = {}
    for name, wire in intervals.items():
        at = f"$.intervals.{name}"
        interval_findings = _interval_wire_findings(wire, path, at)
        if interval_findings:
            findings.extend(interval_findings)
            continue
        try:
            concrete[name] = interval_from_wire(wire)
        except (KeyError, RotaError) as exc:
            findings.append(
                _finding(path, "spec-syntax",
                         f"bad interval: {exc}", where=at)
            )
    constraints = document.get("constraints", [])
    if not isinstance(constraints, (list, tuple)):
        findings.append(
            _finding(path, "spec-syntax",
                     "'constraints' must be a list", where="$.constraints")
        )
        return findings
    findings.extend(
        check_temporal_constraints(
            constraints, concrete, path,
            where="$.constraints", allow_unknown=True,
        )
    )
    return findings


# ----------------------------------------------------------------------
# Scenarios and traces
# ----------------------------------------------------------------------

def _check_scenario(
    document: Mapping[str, Any], path: str, *, quick: bool
) -> List[Finding]:
    findings: List[Finding] = []
    for key in sorted(set(document) - _SCENARIO_KEYS):
        findings.append(
            _finding(path, "spec-syntax",
                     f"unknown scenario key {key!r}", where=f"$.{key}")
        )
    horizon = None
    try:
        horizon = time_from_wire(document["horizon"])
    except KeyError:
        findings.append(
            _finding(path, "spec-syntax",
                     "scenario requires a 'horizon'", where="$.horizon")
        )
    except SerializationError as exc:
        findings.append(
            _finding(path, "spec-syntax", str(exc), where="$.horizon")
        )
    if horizon is not None and (
        horizon <= 0 or (isinstance(horizon, float) and not math.isfinite(horizon))
    ):
        findings.append(
            _finding(path, "spec-interval",
                     f"horizon must be a positive finite time, got {horizon}",
                     where="$.horizon")
        )
        horizon = None

    provided = set()
    if "initial_resources" in document:
        resources, resource_findings = _load(
            resource_set_from_wire, "resource set",
            document["initial_resources"], path, "$.initial_resources",
        )
        findings.extend(resource_findings)
        if resources is not None:
            provided.update(resources.located_types)

    events_wire = document.get("events", [])
    if not isinstance(events_wire, (list, tuple)):
        findings.append(
            _finding(path, "spec-syntax",
                     "'events' must be a list of wire event records",
                     where="$.events")
        )
        events_wire = []
    if quick:
        events_wire = events_wire[:QUICK_TRACE_RECORDS]
    event_findings, arrivals = _screen_events(
        ((1, f"$.events[{index}]", wire) for index, wire in enumerate(events_wire)),
        path, provided=provided, horizon=horizon,
    )
    findings.extend(event_findings)
    constraints = document.get("temporal_constraints", [])
    if not isinstance(constraints, (list, tuple)):
        findings.append(
            _finding(path, "spec-syntax",
                     "'temporal_constraints' must be a list",
                     where="$.temporal_constraints")
        )
    elif constraints:
        findings.extend(
            check_temporal_constraints(
                constraints, arrivals, path,
                where="$.temporal_constraints", allow_unknown=False,
            )
        )
    return findings


def check_trace_text(
    text: str, path: str, *, quick: bool = False
) -> List[Finding]:
    """Screen a JSONL event trace (persistence wire format)."""
    findings, _arrivals = _screen_events(
        (
            (number, "$", raw)
            for number, raw in enumerate(text.splitlines(), start=1)
            if raw.strip()
        ),
        path,
        decode=True,
        limit=QUICK_TRACE_RECORDS if quick else None,
    )
    return findings


def _screen_events(
    entries: Iterable[Tuple[int, str, Any]],
    path: str,
    *,
    provided: Iterable = (),
    horizon=None,
    decode: bool = False,
    limit: Optional[int] = None,
) -> Tuple[List[Finding], Dict[str, Interval]]:
    """Load and screen wire events, each entry anchored at its own
    ``(line, where)``; a ``decode`` entry is a raw JSON line.

    Loading stops once ``limit`` events have loaded.  Coverage is then
    skipped: with a truncated scan, later joins could still provide the
    type, and only a full read can prove absence.  Returns the findings
    and the window of every labelled arrival.
    """
    from repro.system.events import ComputationArrivalEvent, ResourceJoinEvent
    from repro.workloads.persistence import event_from_wire

    findings: List[Finding] = []
    events: List[Tuple[int, str, Any]] = []
    truncated = False
    for line, where, wire in entries:
        if limit is not None and len(events) >= limit:
            truncated = True
            break
        if decode:
            try:
                wire = json.loads(wire)
            except json.JSONDecodeError as exc:
                findings.append(
                    _finding(path, "spec-syntax",
                             f"not valid JSON: {exc.msg}", line=line, where="")
                )
                continue
        interval_findings = _interval_wire_findings(wire, path, where)
        if interval_findings:
            findings.extend(replace(f, line=line) for f in interval_findings)
            continue
        try:
            events.append((line, where, event_from_wire(wire)))
        except (RotaError, KeyError, TypeError) as exc:
            if isinstance(exc, RotaError):
                findings.append(
                    _classify_rota_error(exc, path, where, line=line)
                )
            else:
                findings.append(
                    _finding(path, "spec-syntax",
                             f"bad event: {exc!r}", line=line, where=where)
                )
    provided = set(provided)
    for _line, _where, event in events:
        if isinstance(event, ResourceJoinEvent):
            provided.update(event.resources.located_types)
    arrivals: Dict[str, Interval] = {}
    for line, where, event in events:
        if event.time < 0:
            findings.append(
                _finding(path, "spec-interval",
                         f"event time {event.time} is negative",
                         line=line, where=where)
            )
        elif horizon is not None and event.time > horizon:
            findings.append(
                _finding(
                    path, "spec-deadline-vacuous",
                    f"event at {event.time} lies beyond the horizon "
                    f"{horizon} and will never fire", line=line, where=where,
                    severity="warning",
                )
            )
        if isinstance(event, ComputationArrivalEvent):
            requirement = event.requirement
            findings.extend(
                _requirement_semantics(
                    requirement, path, where, line=line,
                    arrival_time=event.time, horizon=horizon,
                )
            )
            if not truncated:
                findings.extend(
                    _coverage_findings(
                        requirement, provided, path, where, line=line
                    )
                )
            label = getattr(requirement, "label", "") or event.label
            if label:
                arrivals[label] = requirement.window
    return findings, arrivals


# ----------------------------------------------------------------------
# Fault plans and formulas
# ----------------------------------------------------------------------

def _check_constructed(
    document: Mapping[str, Any],
    path: str,
    cls: type,
    rule: str,
    load: Callable[[Dict[str, Any]], Any],
) -> List[Finding]:
    """Screen a fault plan or front-door config: a typo'd key is syntax,
    and the known keys must construct through ``load`` — an inconsistent
    combination (e.g. brownout exit >= enter) is a ``rule`` finding."""
    kind = document["kind"]
    known = set(cls.__dataclass_fields__)
    findings = [
        _finding(path, "spec-syntax", f"unknown {kind} key {key!r}",
                 where=f"$.{key}")
        for key in sorted(set(document) - known - {"kind"})
    ]
    try:
        load({key: value for key, value in document.items() if key in known})
    except RotaError as exc:
        findings.append(_finding(path, rule, str(exc), where="$"))
    return findings


_FORMULA_MAX_DEPTH = 64


def _check_formula_document(
    document: Mapping[str, Any], path: str
) -> List[Finding]:
    if "formula" not in document:
        return [
            _finding(path, "spec-syntax",
                     "formula document requires a 'formula' node",
                     where="$.formula")
        ]
    return _check_formula_node(document["formula"], path, "$.formula", 0)


def _check_formula_node(
    node: Any, path: str, where: str, depth: int
) -> List[Finding]:
    if depth > _FORMULA_MAX_DEPTH:
        return [
            _finding(path, "spec-syntax",
                     f"formula nesting exceeds {_FORMULA_MAX_DEPTH} levels",
                     where=where)
        ]
    if not isinstance(node, Mapping) or "op" not in node:
        return [
            _finding(path, "spec-syntax",
                     "formula node must be an object with an 'op'",
                     where=where)
        ]
    op = node["op"]
    if op in ("true", "false"):
        return []
    if op == "satisfy":
        if "requirement" not in node:
            return [
                _finding(path, "spec-syntax",
                         "satisfy needs a 'requirement'", where=where)
            ]
        requirement, findings = _load(
            requirement_from_wire, "requirement", node["requirement"],
            path, f"{where}.requirement",
        )
        if requirement is not None:
            findings.extend(
                _requirement_semantics(
                    requirement, path, f"{where}.requirement"
                )
            )
        return findings
    if op in ("not", "eventually", "always"):
        if "operand" not in node:
            return [
                _finding(path, "spec-syntax",
                         f"{op} needs an 'operand'", where=where)
            ]
        return _check_formula_node(
            node["operand"], path, f"{where}.operand", depth + 1
        )
    if op in ("and", "or"):
        findings = []
        for side in ("left", "right"):
            if side not in node:
                findings.append(
                    _finding(path, "spec-syntax",
                             f"{op} needs '{side}'", where=where)
                )
            else:
                findings.extend(
                    _check_formula_node(
                        node[side], path, f"{where}.{side}", depth + 1
                    )
                )
        return findings
    return [
        _finding(
            path, "spec-syntax",
            f"unknown formula op {op!r} (ROTA syntax: true, false, satisfy, "
            "not, and, or, eventually, always)", where=where,
        )
    ]
