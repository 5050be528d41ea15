"""Theorem-1 necessary-condition screen — the cheap, conservative gate.

Theorem 1 (single action): a requirement is satisfiable only if, for
every located type it demands, the quantity of that type existing inside
the window covers the demand (``U_s^d Theta >= Phi``).  This is a
*necessary* condition for every richer check in the calculus — a
sequential, concurrent, or Theorem-4 admission check decomposes the
window into subintervals whose supplies sum to at most the whole
window's, so a requirement failing the aggregate screen is guaranteed
infeasible.

That direction is the only one the screen asserts, which is what makes
it safe to run *instead of* the exact check when rejection is the only
action taken on its verdict:

* the spec linter (``repro-lint spec``, PR 5) flags screen failures as
  ``spec-supply-shortfall`` before any simulation touches a document;
* the service front door's brownout mode (:mod:`repro.service`) degrades
  low-criticality admission checks to this screen under overload —
  reject on failure, *defer* (never admit) on success — so degradation
  can only refuse work the exact Theorem-4 check would refuse too.

Both callers share :func:`supply_shortfall` so the screen cannot drift
from the theorem it implements.
"""

from __future__ import annotations

import math
from typing import Mapping, Optional

from repro.intervals.interval import Interval
from repro.resources.resource_set import ResourceSet


def requirement_demands(requirement) -> Mapping:
    """Order-blind aggregate demand of any requirement level.

    ``SimpleRequirement`` exposes its demands directly; complex and
    concurrent requirements aggregate across phases/components — exactly
    the quantity Theorem 1 compares against window supply.
    """
    demands = getattr(requirement, "demands", None)
    if demands is not None:
        return demands
    return requirement.total_demands


def supply_shortfall(
    available: ResourceSet,
    requirement,
    *,
    window: Optional[Interval] = None,
    require_presence: bool = False,
) -> Optional[str]:
    """The Theorem-1 screen: ``None`` when the necessary condition holds.

    Returns a human-readable shortfall description naming the first
    located type whose aggregate demand exceeds everything ``available``
    can supply inside ``window`` (default: the requirement's own window).
    A non-``None`` result is a *proof of infeasibility*: no exact check
    against ``available`` (or any subset of it) can admit the
    requirement on that window.  ``None`` proves nothing — the exact
    check must still run before any admission.

    ``require_presence`` additionally treats a demanded located type
    that ``available`` never provides at all as a shortfall (the
    linter's ``spec-missing-resource`` reports that case separately, so
    it defaults off here).
    """
    window = requirement.window if window is None else window
    if window.is_empty:
        return f"window {window} is empty"
    if isinstance(window.end, float) and math.isinf(window.end):
        # An unbounded window supplies everything any finite profile
        # holds; the screen cannot refute it.
        return None
    provided = available.provided_types
    for ltype, demanded in requirement_demands(requirement).items():
        if ltype not in provided:
            if require_presence:
                return (
                    f"demands {demanded} of {ltype} but nothing ever "
                    "provides that located type"
                )
            continue
        supply = available.quantity(ltype, window)
        if demanded > supply:
            return (
                f"demands {demanded} of {ltype} inside {window} but "
                f"the resource set can supply at most {supply} there "
                "(Theorem-1 necessary condition fails)"
            )
    return None
