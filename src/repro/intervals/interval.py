"""Time intervals.

The paper (Section III) associates every resource term with a time interval
``tau = (t_start, t_end)``.  We model an interval as a half-open segment
``[start, end)`` of the real time line.  The half-open convention makes the
resource algebra clean: two terms whose intervals *meet* (``t1.end ==
t2.start``) cover the union without double counting, exactly matching the
paper's observation that terms with identical rates and meeting intervals
can be merged.

Endpoints are plain numbers (``int``, ``float`` or ``fractions.Fraction``);
the arithmetic never mixes representations on its own, so exact types stay
exact.  ``math.inf`` is allowed as an end point for open-ended availability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Integral, Real
from typing import Iterable, Iterator, Optional

from repro.errors import InvalidIntervalError

#: Type alias for time values accepted throughout the library.
Time = Real

_new = object.__new__


def is_finite_time(value: object) -> bool:
    """True for a finite real number (``bool`` is a flag, not a time)."""
    if isinstance(value, bool) or not isinstance(value, Real):
        return False
    return isinstance(value, Integral) or math.isfinite(value)


def _check_time(value: object, what: str) -> None:
    if type(value) is int or type(value) is Fraction:
        return  # exact: neither NaN nor infinite, whatever its size
    if not isinstance(value, Real):
        raise InvalidIntervalError(f"{what} must be a real number, got {value!r}")
    if isinstance(value, float) and math.isnan(value):
        raise InvalidIntervalError(f"{what} must not be NaN")


@dataclass(frozen=True, order=False)
class Interval:
    """A half-open time interval ``[start, end)``.

    ``start <= end`` is required; ``start == end`` denotes the *empty*
    interval (the paper: a resource term over an empty interval is null).
    Instances are immutable and hashable, so they can be used as dictionary
    keys and inside sets.
    """

    start: Time
    end: Time

    def __post_init__(self) -> None:
        _check_time(self.start, "interval start")
        _check_time(self.end, "interval end")
        if self.start > self.end:
            raise InvalidIntervalError(
                f"interval start {self.start!r} must not exceed end {self.end!r}"
            )
        if self.start == math.inf:
            raise InvalidIntervalError("interval cannot start at +infinity")

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------
    @property
    def is_empty(self) -> bool:
        """True when the interval contains no time points."""
        return self.start == self.end

    @property
    def duration(self) -> Time:
        """Length of the interval (may be ``math.inf``).

        An unbounded interval is ``math.inf`` long without computing
        ``inf - start``, which overflows for an exact start past float
        range.
        """
        if self.end == math.inf:
            return math.inf
        return self.end - self.start

    def contains_point(self, t: Time) -> bool:
        """Whether time point ``t`` lies inside ``[start, end)``."""
        return self.start <= t < self.end

    def contains(self, other: "Interval") -> bool:
        """Whether ``other`` is a subset of this interval.

        The empty interval is a subset of everything.
        """
        if other.is_empty:
            return True
        return self.start <= other.start and other.end <= self.end

    def overlaps(self, other: "Interval") -> bool:
        """Whether the two intervals share at least one time point."""
        if self.is_empty or other.is_empty:
            return False
        return self.start < other.end and other.start < self.end

    def meets(self, other: "Interval") -> bool:
        """Whether ``other`` starts exactly when this interval ends."""
        if self.is_empty or other.is_empty:
            return False
        return self.end == other.start

    # ------------------------------------------------------------------
    # Set-like operations
    # ------------------------------------------------------------------
    def intersection(self, other: "Interval") -> "Interval":
        """The common sub-interval (possibly empty)."""
        start = max(self.start, other.start)
        end = min(self.end, other.end)
        if start >= end:
            # Normalise all empty results to a canonical point interval so
            # equality of "no time" values is predictable.
            return Interval(start, start) if start == end else EMPTY
        return Interval(start, end)

    def union_pieces(self, other: "Interval") -> tuple["Interval", ...]:
        """Union as a tuple of disjoint intervals (one piece if they touch)."""
        if self.is_empty:
            return (other,) if not other.is_empty else ()
        if other.is_empty:
            return (self,)
        if self.overlaps(other) or self.meets(other) or other.meets(self):
            return (Interval(min(self.start, other.start), max(self.end, other.end)),)
        first, second = sorted((self, other), key=lambda i: (i.start, i.end))
        return (first, second)

    def difference(self, other: "Interval") -> tuple["Interval", ...]:
        """Relative complement ``self \\ other`` as disjoint pieces."""
        if self.is_empty:
            return ()
        if other.is_empty or not self.overlaps(other):
            return (self,)
        pieces: list[Interval] = []
        if self.start < other.start:
            pieces.append(Interval(self.start, other.start))
        if other.end < self.end:
            pieces.append(Interval(other.end, self.end))
        return tuple(pieces)

    def shift(self, delta: Time) -> "Interval":
        """The interval translated by ``delta``."""
        return Interval(self.start + delta, self.end + delta)

    def clamp(self, lo: Time, hi: Time) -> "Interval":
        """Intersection with ``[lo, hi)`` expressed via plain bounds."""
        return self.intersection(Interval(lo, hi))

    # ------------------------------------------------------------------
    # Presentation
    # ------------------------------------------------------------------
    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"({self.start}, {self.end})"

    def __repr__(self) -> str:
        return f"Interval({self.start!r}, {self.end!r})"

    def __bool__(self) -> bool:
        return not self.is_empty

    def __iter__(self) -> Iterator[Time]:
        """Unpacking support: ``start, end = interval``."""
        yield self.start
        yield self.end


#: Canonical empty interval.
EMPTY = Interval(0, 0)


def trusted_interval(start: Time, end: Time) -> Interval:
    """``Interval(start, end)`` for endpoints the caller has already
    validated: real, not NaN, ``start <= end`` and ``start`` below
    ``+inf``.

    The frozen ``__init__`` pays two ``object.__setattr__`` calls and the
    ``__post_init__`` checks; this fills the same fields straight into a
    fresh instance's ``__dict__``, in declaration order, so equality,
    hash and pickle bytes are the ``__init__`` ones.
    """
    made = _new(Interval)
    made.__dict__.update(start=start, end=end)
    return made


def interval(start: Time, end: Time) -> Interval:
    """Convenience factory mirroring the paper's ``(t_start, t_end)``."""
    return Interval(start, end)


def span(intervals: Iterable[Interval]) -> Optional[Interval]:
    """Smallest interval containing every non-empty input, or ``None``."""
    lo: Optional[Time] = None
    hi: Optional[Time] = None
    for item in intervals:
        if item.is_empty:
            continue
        lo = item.start if lo is None else min(lo, item.start)
        hi = item.end if hi is None else max(hi, item.end)
    if lo is None or hi is None:
        return None
    return Interval(lo, hi)


def total_duration(intervals: Iterable[Interval]) -> Time:
    """Sum of durations of the given intervals (they need not be disjoint;
    callers wanting a measure of the union should canonicalise through
    :class:`repro.intervals.intervalset.IntervalSet` first)."""
    total: Time = 0
    for item in intervals:
        total += item.duration
    return total
