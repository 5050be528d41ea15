"""Post-hoc auditing of simulation reports.

The simulator's transition rules already validate each step; the auditor
closes the loop at run level, checking global invariants any correct
execution must satisfy:

* **conservation** — per located type, offered = consumed + expired
  (modulo numerically-negligible dust).  Fault runs opt in with
  ``allow_revocation``: capacity lost to revocations, crashes, and
  straggler degradation is measured into the trace, so the *extended*
  identity ``offered = consumed + expired + lost`` must balance exactly —
  a strictly stronger check than waving revoked quantity through.  The
  same identity is asserted mid-run by the simulator itself
  (``invariant_interval``, via
  :meth:`~repro.system.tracing.SimulationTrace.conservation_gaps` with
  the live ``remaining`` capacity);
* **demand accounting** — a completed computation consumed exactly its
  total demand (recovered-then-completed included: salvage before the
  violation plus the residual afterwards sum to the original demand); an
  admitted-but-unfinished one consumed strictly less; a rejected one
  consumed nothing;
* **outcome sanity** — completed/missed/abandoned are mutually exclusive;
  finish times lie inside the run; misses only after the deadline;
  abandonment and recovery only after a recorded promise violation.

``audit_report`` returns human-readable violation strings (empty list =
clean); the property suites assert emptiness on randomized runs, making
the auditor itself part of the evidence.
"""

from __future__ import annotations

from typing import Dict, List

from repro.intervals.interval import Time
from repro.resources.profile import EPSILON, is_exact
from repro.system.simulator import SimulationReport
from repro.system.tracing import same_quantity


def audit_report(
    report: SimulationReport, *, allow_revocation: bool = False
) -> List[str]:
    """Every violated invariant, as one message each."""
    violations: List[str] = []
    violations.extend(_audit_conservation(report, allow_revocation))
    violations.extend(_audit_demand_accounting(report))
    violations.extend(_audit_outcomes(report))
    return violations


def assert_clean(report: SimulationReport, *, allow_revocation: bool = False) -> None:
    """Raise AssertionError listing violations, if any."""
    violations = audit_report(report, allow_revocation=allow_revocation)
    if violations:
        raise AssertionError(
            "simulation audit failed:\n  " + "\n  ".join(violations)
        )


# ----------------------------------------------------------------------

def _positive(value) -> bool:
    """Strictly-positive test with the same exactness policy: an exact
    residue, however small, is genuinely nonzero."""
    if is_exact(value):
        return value > 0
    return value > EPSILON


def _exceeds(a, b) -> bool:
    """``a > b`` beyond numerical dust."""
    if is_exact(a) and is_exact(b):
        return a > b
    return float(a) > float(b) + 1e-6


def _audit_conservation(report: SimulationReport, allow_revocation: bool):
    if allow_revocation:
        # Extended identity: losses are measured, so the balance is exact.
        yield from report.trace.conservation_gaps(report.offered)
        return
    consumed = report.trace.consumed_totals()
    expired = report.trace.expired_totals()
    # Shed capacity (front-door refusals) is deliberate, not a fault:
    # a fault-free run behind an admission front door still sheds, so
    # the strict identity carries the shed leg even here.
    shed = report.trace.shed_totals()
    for ltype, offered in report.offered.items():
        accounted = (
            consumed.get(ltype, 0)
            + expired.get(ltype, 0)
            + shed.get(ltype, 0)
        )
        if not same_quantity(accounted, offered):
            legs = "consumed+expired+shed" if shed else "consumed+expired"
            yield (
                f"conservation: {ltype} offered {offered} but "
                f"{legs} = {accounted}"
            )


def _audit_demand_accounting(report: SimulationReport):
    # Sums stay in their native numeric types: converting exact int/
    # Fraction quantities to float here would let the EPSILON comparisons
    # below misclassify a genuinely positive exact residue as zero.
    per_actor = report.trace.consumption_by_actor()
    consumed_by_record: Dict[str, Time] = {}
    for actor, amounts in per_actor.items():
        owner = actor.split("[")[0]
        total: Time = 0
        for amount in amounts.values():
            total = total + amount
        consumed_by_record[owner] = consumed_by_record.get(owner, 0) + total
    for record in report.records:
        consumed = consumed_by_record.get(record.label, 0)
        if not record.admitted:
            if _positive(consumed):
                yield f"{record.label}: rejected but consumed {consumed}"
            continue
        if record.total_demands is None:
            continue
        demand = record.total_demands.total
        if record.completed and not same_quantity(consumed, demand):
            yield (
                f"{record.label}: completed with consumption {consumed} "
                f"!= demand {demand}"
            )
        if not record.completed and _exceeds(consumed, demand):
            yield (
                f"{record.label}: unfinished yet consumed {consumed} "
                f"> demand {demand}"
            )
        if record.abandoned and not same_quantity(record.salvaged, consumed):
            yield (
                f"{record.label}: abandoned with salvage {record.salvaged} "
                f"!= consumed {consumed}"
            )


def _audit_outcomes(report: SimulationReport):
    violated = {v.label for v in report.trace.violations}
    for record in report.records:
        if record.completed and record.missed:
            yield f"{record.label}: both completed and missed"
        if record.abandoned and (record.completed or record.missed):
            yield f"{record.label}: abandoned yet also completed/missed"
        if record.completed and record.finish_time is None:
            yield f"{record.label}: completed without a finish time"
        if record.finish_time is not None and record.finish_time > report.horizon:
            yield (
                f"{record.label}: finish {record.finish_time} past the "
                f"horizon {report.horizon}"
            )
        if record.missed and record.window.end > report.horizon:
            yield (
                f"{record.label}: marked missed but its deadline "
                f"{record.window.end} lies beyond the horizon"
            )
        if (record.recovered or record.abandoned) and record.label not in violated:
            yield (
                f"{record.label}: recovered/abandoned without a recorded "
                "promise violation"
            )
        if record.abandoned and record.violated_at is None:
            yield f"{record.label}: abandoned but never marked violated"
