"""Resource terms: ``[r]_{xi}^{tau}`` (paper Section III).

A resource term names a rate ``r`` of located type ``xi`` available
throughout time interval ``tau``.  The product ``r x |tau|`` is the total
quantity available over the interval.  Terms over empty intervals are
*null* — "resources are only defined during non-empty time intervals" —
and rates are never negative.

The module also implements the paper's term-dominance operator: term A is
*greater than* term B when a computation that requires B could instead use
A, with some to spare — same-or-substitutable located type, at least B's
rate, throughout an interval containing B's.  (The paper states the rate
premise with strict ``>``; we use ``>=``, the reading under which the
relative complement of Section III — which may leave exactly zero — stays
well defined.  EXPERIMENTS.md records this deviation.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real
from typing import Tuple

from repro.errors import InvalidTermError, LocatedTypeMismatchError
from repro.intervals.interval import Interval, Time
from repro.resources.located_type import LocatedType
from repro.resources.profile import RateProfile


@dataclass(frozen=True)
class ResourceTerm:
    """``[rate]_{ltype}^{window}`` — the paper's resource term."""

    rate: Time
    ltype: LocatedType
    window: Interval

    def __post_init__(self) -> None:
        if not isinstance(self.rate, Real):
            raise InvalidTermError(f"rate must be a real number, got {self.rate!r}")
        if isinstance(self.rate, float) and not math.isfinite(self.rate):
            # An infinite rate accumulates any demand at once; a NaN one
            # would only surface later, inside profile aggregation.
            raise InvalidTermError(f"rate must be finite, got {self.rate!r}")
        if self.rate < 0:
            raise InvalidTermError(
                f"resource terms cannot be negative, got rate {self.rate!r}"
            )
        if not isinstance(self.ltype, LocatedType):
            raise InvalidTermError(f"ltype must be a LocatedType, got {self.ltype!r}")

    # ------------------------------------------------------------------
    @property
    def is_null(self) -> bool:
        """Null terms: empty interval or zero rate (value 0 per the paper)."""
        return self.window.is_empty or self.rate == 0

    @property
    def quantity(self) -> Time:
        """Total quantity over the term's interval: ``rate x |tau|``."""
        if self.is_null:
            return 0
        return self.rate * self.window.duration

    @property
    def segment(self) -> Tuple[Interval, Time]:
        """The term as a ``(window, rate)`` pair — the unit the k-way
        profile merge (:meth:`RateProfile.from_segments`) aggregates."""
        return (self.window, self.rate)

    def profile(self) -> RateProfile:
        """The term as a one-segment rate profile."""
        if self.is_null:
            return RateProfile.zero()
        return RateProfile.constant(self.rate, self.window)

    # ------------------------------------------------------------------
    def dominates(self, other: "ResourceTerm") -> bool:
        """The paper's ``[r1]^{tau1}_{xi1} > [r2]^{tau2}_{xi2}``:
        xi1 can serve xi2, r1 >= r2, and tau2 is contained in tau1.

        Null terms are dominated by everything (they demand nothing)."""
        if other.is_null:
            return True
        if self.is_null:
            return False
        return (
            self.ltype.can_serve(other.ltype)
            and self.rate >= other.rate
            and self.window.contains(other.window)
        )

    def __gt__(self, other: "ResourceTerm") -> bool:
        if not isinstance(other, ResourceTerm):
            return NotImplemented
        return self.dominates(other) and self != other

    def __ge__(self, other: "ResourceTerm") -> bool:
        if not isinstance(other, ResourceTerm):
            return NotImplemented
        return self.dominates(other)

    # ------------------------------------------------------------------
    def subtract(self, other: "ResourceTerm") -> tuple["ResourceTerm", ...]:
        """Term subtraction (paper Section III):

        ``[r1]^{tau1} - [r2]^{tau2} = { [r1]^{tau1 \\ tau2}, [r1-r2]^{tau2} }``

        Defined only when ``self`` dominates ``other``; the result is the
        set of non-null remainder terms.
        """
        if other.is_null:
            return (self,) if not self.is_null else ()
        if not self.ltype.can_serve(other.ltype):
            raise LocatedTypeMismatchError(
                f"cannot subtract {other.ltype} from {self.ltype}"
            )
        if not self.dominates(other):
            raise InvalidTermError(
                f"subtraction undefined: {self} does not dominate {other}"
            )
        remainders: list[ResourceTerm] = []
        for piece in self.window.difference(other.window):
            remainders.append(ResourceTerm(self.rate, self.ltype, piece))
        reduced = ResourceTerm(self.rate - other.rate, self.ltype, other.window)
        if not reduced.is_null:
            remainders.append(reduced)
        return tuple(r for r in remainders if not r.is_null)

    # ------------------------------------------------------------------
    def __str__(self) -> str:
        return f"[{self.rate}]_{self.ltype}^{self.window}"


def term(rate: Time, ltype: LocatedType, start: Time, end: Time) -> ResourceTerm:
    """Convenience factory: ``term(5, cpu('l1'), 0, 3)`` is the paper's
    ``[5]_{<cpu,l1>}^{(0,3)}``."""
    return ResourceTerm(rate, ltype, Interval(start, end))
