"""Piecewise-constant rate profiles.

A resource term ``[r]_{xi}^{tau}`` contributes rate ``r`` of located type
``xi`` throughout interval ``tau``.  Aggregating every term of one located
type (the paper's *simplification* of resource sets) yields a
piecewise-constant step function of time: the **rate profile**.

:class:`RateProfile` is the canonical simplified form.  All resource-set
operations reduce to profile operations:

* union of terms              -> pointwise addition,
* relative complement         -> pointwise subtraction (partial: defined
                                 only when it never goes negative),
* the paper's ``U_s^d Theta`` -> restriction to a window,
* quantity over an interval   -> integration.

Profiles keep exact arithmetic when fed ints/Fractions; float inputs are
handled with a small tolerance on the non-negativity check.

Representation: a sorted tuple of ``(time, rate)`` breakpoints.  The rate
of the profile is 0 before the first breakpoint; each breakpoint's rate
holds from its time up to the next breakpoint's time; the final
breakpoint's rate holds forever (so a profile with finite support ends
with a rate-0 breakpoint).

Every decision procedure (Theorem 4 admission, schedule search, the
Figure 1 model checker) bottoms out here, so the algebra and the point
and window queries are the system's hot path.  Two arithmetic regimes
share that surface, and both run on array kernels in
:mod:`repro.resources._vectorized`:

* **Exact** profiles (every coordinate ``int``/``Fraction``) run on
  scaled-integer kernels: one common denominator per profile, int64
  numerator arrays for times and rates, and a per-coordinate "is a
  Fraction" bit, so every result keeps the type the scalar path would
  give it (``Fraction(2, 1)`` stays a Fraction, ``2`` stays an int).
  Window integrals and accumulation searches use an exact int64
  cumulative sum plus a binary search; no EPSILON is involved.
* **Inexact** profiles (some float coordinate) batch onto float64
  kernels whenever every coordinate is losslessly float64-representable;
  they reproduce the scalar float path's IEEE-754 operation order
  bit-for-bit.  Vec-built float profiles carry float coordinates, so an
  int that rode along in an inexact profile comes back as the equal
  float (``2 -> 2.0``).

Kernel results stay in array form; the breakpoint tuples are built only
on demand (equality, pickling, the scalar fallbacks), and a profile
never keeps both forms alive.  Exact operations whose operands are all
still small tuples stay scalar: below
:data:`EXACT_KERNEL_MIN_BREAKPOINTS` numpy's per-call overhead costs more
than the work.

The scalar path — a lazily-built bisect index plus a cumulative-integral
array, ``O(log n)`` point/window lookups and ``O(n + m)`` two-pointer
merges — is the fallback: without numpy, for exact values that would
overflow int64 after rescaling, and for ``Rational`` values that are
neither ``int`` nor ``Fraction``.  The naive implementations are retained
below as ``_reference_*`` oracles; ``tests/test_profile_fastpath.py`` and
``tests/test_profile_differential.py`` pin every path to them (values,
types and exceptions), and ``benchmarks/bench_profile_ops.py`` tracks the
speedup.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left, bisect_right
from fractions import Fraction
from numbers import Rational
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import InvalidTermError, UndefinedOperationError
from repro.intervals.interval import Interval, Time
from repro.intervals.intervalset import IntervalSet
from repro.resources import _vectorized as _vec

#: Tolerance used when float arithmetic is involved.  Exact numeric types
#: (int, Fraction) never need it.
EPSILON = 1e-9  # repro-lint: disable=float-literal -- the sanctioned float-tolerance boundary itself (see is_exact below)

#: Breakpoints (all operands together) from which an exact operation on
#: profiles still in tuple form moves onto the integer kernels, and from
#: which such a profile switches to array form for good.  Below it the
#: scalar sweep is faster than numpy's per-call overhead (measured in
#: EXPERIMENTS.md); profiles already in array form always stay on the
#: kernels.
EXACT_KERNEL_MIN_BREAKPOINTS = 16

_EXACT_TYPES = (int, Fraction)


def is_exact(value: object) -> bool:
    """Whether ``value`` is an exact numeric type (``int``/``Fraction``).

    Exact quantities compare exactly: applying the float ``EPSILON`` to
    them can misclassify a genuinely positive residue as zero.  Tolerance
    belongs only where a float has entered the computation.
    """
    kind = type(value)
    if kind is int or kind is Fraction:
        return True
    return isinstance(value, Rational)


def exact_div(numerator: Time, denominator: Time) -> Time:
    """Division that stays exact for integer operands.

    Decision procedures compare their answers against brute-force oracles;
    exact arithmetic avoids spurious float disagreements.  Integer results
    are returned as ints, non-integer ratios of ints as Fractions.
    """
    if isinstance(numerator, int) and isinstance(denominator, int):
        ratio = Fraction(numerator, denominator)
        return int(ratio) if ratio.denominator == 1 else ratio
    return numerator / denominator


def _normalise(points: Iterable[Tuple[Time, Time]]) -> tuple[Tuple[Time, Time], ...]:
    """Sort breakpoints, drop repeats at equal times (last wins), and merge
    consecutive breakpoints with equal rates."""
    ordered = sorted(points, key=lambda p: p[0])
    collapsed: list[Tuple[Time, Time]] = []
    for time, rate in ordered:
        if collapsed and collapsed[-1][0] == time:
            collapsed[-1] = (time, rate)
        else:
            collapsed.append((time, rate))
    merged: list[Tuple[Time, Time]] = []
    for time, rate in collapsed:
        if merged and merged[-1][1] == rate:
            continue
        merged.append((time, rate))
    if merged and merged[0][1] == 0:
        # A leading zero-rate breakpoint is redundant: the profile is zero
        # before the first breakpoint anyway.  Consecutive equal rates were
        # merged above, so at most one leading zero can exist.
        merged.pop(0)
    return tuple(merged)


def _exact_views(profiles: Sequence["RateProfile"]):
    """Integer views of ``profiles`` for an exact kernel, or ``None`` when
    the operation stays on the float or scalar path."""
    if not any(p._den for p in profiles):
        size = 0
        for p in profiles:
            if p._pts is None:
                return None  # float arrays
            size += len(p._pts)
        if size < EXACT_KERNEL_MIN_BREAKPOINTS:
            return None
    views = []
    for p in profiles:
        view = p._int_view()
        if view is None:
            return None
        views.append(view)
    return views


class RateProfile:
    """An immutable, piecewise-constant, non-negative function of time.

    A profile lives in one of three forms: breakpoint tuples (``_pts``),
    float64 arrays (``_vt``/``_vr`` with ``_vok`` set, inexact only), or
    the integer form (``_vt``/``_vr`` int64 numerators over ``_den``,
    Fraction bits ``_ft``/``_fr``, magnitude bound ``_bound``; exact
    only).  ``_den`` is ``None`` before the integer form was tried and
    0 when the profile has none.
    """

    __slots__ = (
        "_pts", "_times", "_cum", "_exact", "_vt", "_vr", "_vok", "_rl",
        "_den", "_ft", "_fr", "_bound", "_ix",
    )

    def __init__(self, points: Iterable[Tuple[Time, Time]] = ()) -> None:
        pts = _normalise(points)
        for time, rate in pts:
            if isinstance(rate, float) and math.isnan(rate):
                raise InvalidTermError("profile rate must not be NaN")
            if rate < 0:
                raise InvalidTermError(f"profile rate must be >= 0, got {rate!r} at t={time!r}")
        self._pts: Optional[tuple] = pts
        self._times: Optional[list] = None
        self._cum: Optional[list] = None
        self._exact: Optional[bool] = None
        self._vt = None
        self._vr = None
        self._vok: Optional[bool] = None
        self._rl: Optional[list] = None
        self._den: Optional[int] = None
        self._ft = None
        self._fr = None
        self._bound: Optional[int] = None
        self._ix = None

    @property
    def _points(self) -> tuple[Tuple[Time, Time], ...]:
        """Canonical breakpoint tuples.

        Array-built profiles materialize them only when something
        actually needs them (equality, hashing, the scalar fallbacks):
        the hot admission chains — subtract, cap, clamp, integral,
        accumulation walks — stay on the arrays end to end.  An
        integer-form profile hands its arrays in for the tuples."""
        pts = self._pts
        if pts is None:
            if self._den:
                pts = _vec.exact_points(self._exact_view())
                self._vt = self._vr = self._ft = self._fr = None
                self._den = self._bound = self._ix = None
            else:
                pts = tuple(zip(self._vt.tolist(), self._vr.tolist()))
            self._pts = pts
        return pts

    def _rates(self) -> list:
        """Rates by breakpoint position, built lazily (float-vec-built
        profiles read straight off the rate array)."""
        rl = self._rl
        if rl is None:
            if self._pts is None and not self._den:
                rl = self._vr.tolist()
            else:
                rl = [r for _, r in self._points]
            self._rl = rl
        return rl

    def _is_exact(self) -> bool:
        """Whether every coordinate is exact (cumulative differences are
        then drift-free), computed once."""
        exact = self._exact
        if exact is None:
            exact = self._exact = all(
                is_exact(t) and is_exact(r) for t, r in self._pts
            )
        return exact

    def _ensure_index(self) -> None:
        """Build the breakpoint times for bisection on first use."""
        if self._times is not None:
            return
        if self._pts is None and not self._den:
            self._times = self._vt.tolist()  # float-vec-built
            return
        self._times = [t for t, _ in self._points]

    def _ensure_cumulative(self) -> None:
        """The cumulative integral up to each breakpoint: only the exact
        scalar ``integral`` reads it."""
        if self._cum is not None:
            return
        self._ensure_index()
        pts, times = self._points, self._times
        cum: list = [0] * len(pts)
        for i in range(1, len(pts)):
            t_prev, r_prev = pts[i - 1]
            cum[i] = cum[i - 1] + r_prev * (times[i] - t_prev)
        self._cum = cum

    def _exact_view(self):
        """The integer form as a kernel view (integer-form profiles only)."""
        return (self._den, self._vt, self._vr, self._ft, self._fr, self._bound)

    def _int_view(self):
        """The integer form for the exact kernels, or ``None`` when the
        profile has none (float coordinates, an int64 overflow after
        rescaling, other ``Rational`` types, no numpy).  A tuple-form
        profile converts on the fly; one with at least
        :data:`EXACT_KERNEL_MIN_BREAKPOINTS` breakpoints switches to the
        integer form for good."""
        if self._den:
            return self._exact_view()
        pts = self._pts
        if self._den is not None or pts is None or not _vec.HAVE_NUMPY:
            return None
        view = _vec.exact_arrays_from_points(pts)
        if view is None:
            self._den = 0
            return None
        if len(pts) >= EXACT_KERNEL_MIN_BREAKPOINTS:
            self._den, self._vt, self._vr, self._ft, self._fr, self._bound = view
            self._pts = self._times = self._cum = self._rl = None
            self._vok = None
            self._exact = True
        return view

    def _exact_index(self):
        """The exact kernels' query index, or ``None`` (scalar path) for
        small tuple-form profiles and profiles with no integer form."""
        if not self._den:
            pts = self._pts
            if pts is None or len(pts) < EXACT_KERNEL_MIN_BREAKPOINTS:
                return None
            if self._int_view() is None:
                return None
        index = self._ix
        if index is None:
            index = self._ix = _vec.exact_index(self._exact_view())
        return index

    def _vector_index(self):
        """Float64 ``(times, rates)`` arrays for the vectorized kernels,
        or ``None`` when the profile is not losslessly representable
        (Fraction coordinates, huge ints) or numpy is unavailable."""
        if self._vok is None:
            pts = self._points  # an integer-form profile materializes first
            if _vec.HAVE_NUMPY and _vec.points_safe(pts):
                self._vt, self._vr = _vec.arrays_from_points(pts)
                self._vok = True
            else:
                self._vok = False
        return (self._vt, self._vr) if self._vok else None

    def _vector_pair(self, other: "RateProfile"):
        """Operand arrays for a vectorized binary op, or ``None`` when
        the op must stay scalar.  The float kernels are auto-selected
        only when the operation is inexact — both operands exact means
        the integer kernels or the scalar fallback answer."""
        if self._is_exact() and other._is_exact():
            return None
        va = self._vector_index()
        if va is None:
            return None
        vb = other._vector_index()
        if vb is None:
            return None
        return va, vb

    @classmethod
    def _from_float_arrays(cls, times, rates) -> "RateProfile":
        """Adopt normalised float64 arrays as a profile.

        Vec-kernel results only: the arrays are already sorted, unique
        in time, rate-merged, and validated, so construction skips
        ``_normalise`` and pre-seeds the vector index."""
        if len(times) == 0:
            return _ZERO
        profile = cls.__new__(cls)
        profile._pts = None  # materialized on demand from the arrays
        profile._times = None
        profile._cum = None  # only consulted on the exact path
        profile._exact = False
        profile._vt = times
        profile._vr = rates
        profile._vok = True
        profile._rl = None
        profile._den = 0
        profile._ft = profile._fr = profile._bound = profile._ix = None
        return profile

    @classmethod
    def _from_exact_arrays(cls, view) -> "RateProfile":
        """Adopt a normalised integer-form kernel result as a profile."""
        den, times, rates, ftimes, frates, bound = view
        if len(times) == 0:
            return _ZERO
        profile = cls.__new__(cls)
        profile._pts = None  # materialized on demand from the arrays
        profile._times = profile._cum = profile._rl = profile._ix = None
        profile._exact = True
        profile._vt = times
        profile._vr = rates
        profile._vok = None
        profile._den = den
        profile._ft = ftimes
        profile._fr = frates
        profile._bound = bound
        return profile

    def __reduce__(self):
        # Serialize the canonical breakpoints only: the lazy indexes and
        # array forms are caches, rebuilt on demand after unpickling
        # (keeps checkpoint payloads small and independent of which
        # queries happened to run before the snapshot).  Pickling does
        # not move an integer-form profile off its arrays.
        pts = self._pts
        if pts is None:
            pts = (
                _vec.exact_points(self._exact_view()) if self._den
                else self._points
            )
        return (RateProfile, (pts,))

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def constant(cls, rate: Time, window: Interval) -> "RateProfile":
        """Rate ``rate`` throughout ``window``, zero elsewhere."""
        if window.is_empty or rate == 0:
            return _ZERO
        if math.isinf(window.end):
            return cls(((window.start, rate),))
        return cls(((window.start, rate), (window.end, 0)))

    @classmethod
    def from_segments(cls, segments: Iterable[Tuple[Interval, Time]]) -> "RateProfile":
        """Sum of constant segments (overlaps add, as in simplification).

        Equivalent to folding :meth:`constant` profiles through ``+`` but
        built by a single breakpoint sweep, so aggregating ``n`` segments
        is ``O(n log n)`` instead of quadratic repeated addition.
        """
        live: list[Tuple[Time, Time, Time]] = []  # (start, end, rate)
        exact = True
        for window, rate in segments:
            if window.is_empty or rate == 0:
                continue
            if rate < 0 or (isinstance(rate, float) and math.isnan(rate)):
                # Match the validation the constant()-fold performed.
                return _reference_from_segments([(window, rate)])
            if not (is_exact(rate) and is_exact(window.start) and is_exact(window.end)):
                exact = False
            live.append((window.start, window.end, rate))
        if not live:
            return _ZERO
        if not exact:
            if _vec.HAVE_NUMPY and all(
                _vec.coordinate_safe(start)
                and _vec.coordinate_safe(end)
                and _vec.coordinate_safe(rate)
                for start, end, rate in live
            ):
                return cls._from_float_arrays(*_vec.from_segments(live))
            # Float rates: per-breakpoint left-fold keeps bit-identical
            # results with the repeated-addition definition.
            return cls.sum(
                cls.constant(rate, Interval(start, end)) for start, end, rate in live
            )
        if _vec.HAVE_NUMPY and 2 * len(live) >= EXACT_KERNEL_MIN_BREAKPOINTS:
            view = _vec.exact_from_segments(live)
            if view is not None:
                return cls._from_exact_arrays(view)
        events: list[Tuple[Time, Time]] = []
        for start, end, rate in live:
            events.append((start, rate))
            if not math.isinf(end):
                events.append((end, -rate))
        events.sort(key=lambda e: e[0])
        points: list[Tuple[Time, Time]] = []
        level: Time = 0
        index, count = 0, len(events)
        while index < count:
            t = events[index][0]
            while index < count and events[index][0] == t:
                level = level + events[index][1]
                index += 1
            points.append((t, level))
        return cls(points)

    @classmethod
    def sum(cls, profiles: Iterable["RateProfile"]) -> "RateProfile":
        """Pointwise sum of many profiles via one k-way breakpoint merge.

        Equivalent to folding through ``+`` (the per-breakpoint rate sums
        keep the fold's left-to-right association, so float results do not
        drift from the pairwise definition) but visits every breakpoint
        once instead of once per partial sum.
        """
        live = [p for p in profiles if not p.is_zero]
        if not live:
            return _ZERO
        if len(live) == 1:
            return live[0]
        views = _exact_views(live)
        if views is not None:
            view = _vec.exact_sum(views)
            if view is not None:
                return cls._from_exact_arrays(view)
        if not all(p._is_exact() for p in live):
            arrays = [p._vector_index() for p in live]
            if all(a is not None for a in arrays):
                return cls._from_float_arrays(*_vec.sum_profiles(arrays))
        point_lists = [p._points for p in live]
        times = sorted({t for pts in point_lists for t, _ in pts})
        rates: list[Time] = [0] * len(live)
        cursors = [0] * len(live)
        points: list[Tuple[Time, Time]] = []
        for t in times:
            for k, pts in enumerate(point_lists):
                i = cursors[k]
                while i < len(pts) and pts[i][0] <= t:
                    rates[k] = pts[i][1]
                    i += 1
                cursors[k] = i
            level: Time = 0
            for rate in rates:
                level = level + rate
            points.append((t, level))
        return cls(points)

    @classmethod
    def zero(cls) -> "RateProfile":
        return _ZERO

    # ------------------------------------------------------------------
    # Point and window queries
    # ------------------------------------------------------------------
    @property
    def breakpoints(self) -> tuple[Tuple[Time, Time], ...]:
        """The canonical ``(time, rate)`` breakpoints."""
        return self._points

    @property
    def is_zero(self) -> bool:
        pts = self._pts
        if pts is None:
            return False  # array-built profiles are never empty
        return not pts

    def rate_at(self, t: Time) -> Time:
        """The rate in effect at time ``t`` (``O(log n)``)."""
        if self.is_zero:
            return 0
        if self._den and type(t) in _EXACT_TYPES:
            return _vec.exact_rate_at(self._den, self._exact_index(), t)
        self._ensure_index()
        i = bisect_right(self._times, t) - 1
        return self._rates()[i] if i >= 0 else 0

    def rates_at(self, ts: Sequence[Time]) -> List[Time]:
        """Batch :meth:`rate_at`: the rate in effect at each query time.

        One vectorized bisection over all queries when both the profile
        and the query times are float64-safe; the results are the stored
        rate objects either way, identical to mapping :meth:`rate_at`.
        """
        if self.is_zero:
            return [0] * len(ts)
        if _vec.HAVE_NUMPY and all(_vec.coordinate_safe(t) for t in ts):
            va = self._vector_index()
            if va is not None:
                rates = self._rates()
                return [
                    rates[i] if i >= 0 else 0
                    for i in _vec.rate_indices(va, ts).tolist()
                ]
        return [self.rate_at(t) for t in ts]

    def segments(self) -> Iterator[Tuple[Interval, Time]]:
        """Maximal constant-rate segments with positive rate.

        A trailing positive rate yields a segment ending at ``math.inf``.
        """
        for (t0, rate), nxt in itertools.zip_longest(
            self._points, self._points[1:], fillvalue=None
        ):
            if rate == 0:
                continue
            end = nxt[0] if nxt is not None else math.inf
            yield Interval(t0, end), rate

    @property
    def support(self) -> IntervalSet:
        """Where the rate is positive."""
        return IntervalSet(window for window, _ in self.segments())

    @property
    def horizon(self) -> Time:
        """Last breakpoint time (0 for the zero profile).  Past the
        horizon the rate is constant (usually zero)."""
        pts = self._pts
        if pts is not None:
            return pts[-1][0] if pts else 0
        if self._den:
            return _vec.exact_scalar(int(self._vt[-1]), self._den, self._ft[-1])
        return self._vt[-1].item()  # vec-built: never empty

    @property
    def peak_rate(self) -> Time:
        """Maximum rate anywhere."""
        return max((rate for _, rate in self._points), default=0)

    def _cumulative(self, t: Time) -> Time:
        """Integral from before the first breakpoint up to ``t`` (exact
        profiles only; callers guard)."""
        self._ensure_cumulative()
        times, cum = self._times, self._cum
        i = bisect_right(times, t) - 1
        if i < 0:
            return 0
        rate = self._rates()[i]
        if rate == 0 or times[i] == t:
            return cum[i]
        return cum[i] + rate * (t - times[i])

    def integral(self, window: Interval) -> Time:
        """Total quantity available during ``window``:
        the paper's ``r x tau`` generalised to step functions.

        Exact profiles answer in ``O(log n)`` from a cumulative-integral
        array (int64 numerators on the integer kernels, Fractions on the
        scalar fallback); float profiles fall back to a bisected segment
        scan that reproduces the reference summation order bit-for-bit.
        """
        if window.is_empty or self.is_zero:
            return 0
        start, end = window.start, window.end
        if type(start) in _EXACT_TYPES and type(end) in _EXACT_TYPES:
            index = self._ix or self._exact_index()
            if index is not None and index[4] is not None:
                return _vec.exact_integral(self._den, index, start, end)
        if self._is_exact() and is_exact(start) and is_exact(end):
            return self._cumulative(end) - self._cumulative(start)
        if _vec.coordinate_safe(start) and _vec.coordinate_safe(end):
            va = self._vector_index()
            if va is not None:
                return _vec.integral(va, start, end)
        self._ensure_index()
        times = self._times
        rates = self._rates()
        lo = bisect_right(times, start) - 1
        if lo < 0:
            lo = 0
        hi = bisect_left(times, end)
        total: Time = 0
        for i in range(lo, hi):
            rate = rates[i]
            if rate == 0:
                continue
            seg_start = times[i]
            seg_end = times[i + 1] if i + 1 < len(times) else math.inf
            # Tie-break like ``max``/``min`` (first operand wins) so a
            # breakpoint coinciding with a window edge under a different
            # numeric type (``1`` vs ``1.0`` vs ``Fraction(1)``) picks
            # the same operand — and hence the same rounding — as the
            # reference oracle's ``segment.intersection(window)``.
            s = seg_start if seg_start >= start else start
            e = seg_end if seg_end <= end else end
            if e > s:
                total += rate * (e - s)
        return total

    def min_rate(self, window: Interval) -> Time:
        """Minimum rate over a non-empty window (0 if any gap)."""
        if window.is_empty:
            raise UndefinedOperationError("min_rate over an empty window")
        if self.is_zero:
            return 0
        self._ensure_index()
        times = self._times
        start, end = window.start, window.end
        if start < times[0]:
            return 0
        lo = bisect_right(times, start) - 1
        hi = bisect_left(times, end)
        rates = self._rates()
        return min(rates[i] for i in range(lo, hi))

    def earliest_accumulation(self, start: Time, quantity: Time) -> Optional[Time]:
        """The earliest ``t >= start`` with ``integral((start, t)) >= quantity``.

        Returns ``None`` when the quantity can never be accumulated.  This
        is the primitive behind the greedy breakpoint search of Theorem 2.
        Exact profiles search the integer kernels' prefix integrals;
        otherwise the walk bisects to the first segment past ``start``
        and walks from there, so the cost is ``O(log n + k)`` for ``k``
        segments actually drawn on (the reference walked every segment
        from the origin).
        """
        if quantity <= 0:
            return start
        if self.is_zero:
            return None
        if type(start) in _EXACT_TYPES and type(quantity) in _EXACT_TYPES:
            index = self._exact_index()
            if index is not None and index[4] is not None:
                return _vec.exact_accumulation(
                    self._den, index, start, quantity
                )
        self._ensure_index()
        times = self._times
        rates = self._rates()
        remaining = quantity
        lo = bisect_right(times, start) - 1
        if lo < 0:
            lo = 0
        for i in range(lo, len(rates)):
            rate = rates[i]
            if rate == 0:
                continue
            seg_start = times[i]
            seg_end = times[i + 1] if i + 1 < len(times) else math.inf
            if seg_end <= start:
                continue
            effective_start = max(start, seg_start)
            capacity = rate * (seg_end - effective_start)
            if capacity >= remaining:
                return effective_start + exact_div(remaining, rate)
            remaining -= capacity
        return None

    def latest_accumulation(self, end: Time, quantity: Time) -> Optional[Time]:
        """The latest ``t <= end`` with ``integral((t, end)) >= quantity``.

        The time-reversed dual of :meth:`earliest_accumulation`; the
        primitive behind as-late-as-possible (ALAP) scheduling.  Returns
        ``None`` when the quantity cannot be accumulated before ``end``.
        """
        if quantity <= 0:
            return end
        if self.is_zero:
            return None
        self._ensure_index()
        times = self._times
        rates = self._rates()
        remaining = quantity
        hi = bisect_left(times, end)  # segments hi.. start at or after end
        for i in range(hi - 1, -1, -1):
            rate = rates[i]
            if rate == 0:
                continue
            seg_start = times[i]
            seg_end = times[i + 1] if i + 1 < len(times) else math.inf
            effective_end = min(end, seg_end)
            capacity = rate * (effective_end - seg_start)
            if capacity >= remaining:
                return effective_end - exact_div(remaining, rate)
            remaining -= capacity
        return None

    # ------------------------------------------------------------------
    # Algebra
    # ------------------------------------------------------------------
    def _merged_rates(
        self, other: "RateProfile"
    ) -> Iterator[Tuple[Time, Time, Time]]:
        """Two-pointer merge over both breakpoint lists: yields
        ``(time, self_rate, other_rate)`` at every breakpoint of either
        profile, in time order — ``O(n + m)`` where the naive
        rate_at-per-breaktime evaluation was quadratic."""
        a, b = self._points, other._points
        i = j = 0
        ra: Time = 0
        rb: Time = 0
        while i < len(a) or j < len(b):
            if j >= len(b) or (i < len(a) and a[i][0] <= b[j][0]):
                t = a[i][0]
            else:
                t = b[j][0]
            if i < len(a) and a[i][0] == t:
                ra = a[i][1]
                i += 1
            if j < len(b) and b[j][0] == t:
                rb = b[j][1]
                j += 1
            yield t, ra, rb

    def __add__(self, other: "RateProfile") -> "RateProfile":
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        views = _exact_views((self, other))
        if views is not None:
            view = _vec.exact_add(*views)
            if view is not None:
                return RateProfile._from_exact_arrays(view)
        pair = self._vector_pair(other)
        if pair is not None:
            return RateProfile._from_float_arrays(*_vec.add(*pair))
        return RateProfile(
            (t, ra + rb) for t, ra, rb in self._merged_rates(other)
        )

    def subtract(self, other: "RateProfile", *, tolerance: float = EPSILON) -> "RateProfile":
        """Pointwise subtraction; raises when the result would go negative.

        Mirrors the paper's rule that resource terms cannot be negative:
        the relative complement is a *partial* operation.  ``tolerance``
        absorbs float dust only: an exact negative value, however small,
        is a genuine domain violation and always raises.
        """
        if other.is_zero:
            return self
        views = _exact_views((self, other))
        if views is not None:
            result = _vec.exact_subtract(*views)
            if result is not None and result[0] == "negative":
                _, t, ra, rb = result
                raise UndefinedOperationError(
                    f"subtraction would make the rate negative at t={t!r} "
                    f"({ra!r} - {rb!r})"
                )
            if result is not None:
                return RateProfile._from_exact_arrays(result[1])
        # Vectorize only under a sub-unit tolerance: integer-valued
        # differences are exact for the scalar path (they raise however
        # small), and any |diff| >= 1 also exceeds a sub-unit tolerance,
        # so the float64 kernel cannot mistake one for snappable dust.
        pair = self._vector_pair(other) if tolerance < 1 else None
        if pair is not None:
            result = _vec.subtract(*pair, tolerance)
            if result[0] == "negative":
                _, t, ra, rb = result
                raise UndefinedOperationError(
                    f"subtraction would make the rate negative at t={t!r} "
                    f"({ra!r} - {rb!r})"
                )
            if result[0] == "nan":
                raise InvalidTermError("profile rate must not be NaN")
            return RateProfile._from_float_arrays(result[1], result[2])
        points: list[Tuple[Time, Time]] = []
        for t, ra, rb in self._merged_rates(other):
            value = ra - rb
            if value < 0:
                if not is_exact(value) and -value <= tolerance:
                    value = 0
                else:
                    raise UndefinedOperationError(
                        f"subtraction would make the rate negative at t={t!r} "
                        f"({ra!r} - {rb!r})"
                    )
            points.append((t, value))
        return RateProfile(points)

    def __sub__(self, other: "RateProfile") -> "RateProfile":
        return self.subtract(other)

    def saturating_sub(self, other: "RateProfile") -> "RateProfile":
        """Pointwise ``max(0, self - other)``.

        Unlike :meth:`subtract` this is total: where ``other`` exceeds
        ``self`` the result is clamped at zero.  Used for *revocation* —
        capacity vanishing regardless of what was promised against it —
        not for the paper's (partial) relative complement.
        """
        if other.is_zero:
            return self
        views = _exact_views((self, other))
        if views is not None:
            view = _vec.exact_saturating_sub(*views)
            if view is not None:
                return RateProfile._from_exact_arrays(view)
        pair = self._vector_pair(other)
        if pair is not None:
            return RateProfile._from_float_arrays(*_vec.saturating_sub(*pair))
        return RateProfile(
            (t, max(0, ra - rb)) for t, ra, rb in self._merged_rates(other)
        )

    def scale(self, factor: Time) -> "RateProfile":
        """The profile with every rate multiplied by ``factor >= 0``."""
        if factor < 0:
            raise InvalidTermError("scale factor must be >= 0")
        if factor == 0:
            return _ZERO
        return RateProfile((t, rate * factor) for t, rate in self._points)

    def clamp(self, window: Interval) -> "RateProfile":
        """The profile restricted to ``window`` (zero outside): the paper's
        ``U_s^d`` applied to one located type."""
        if window.is_empty or self.is_zero:
            return _ZERO
        if self._den or (
            self._pts is not None
            and len(self._pts) >= EXACT_KERNEL_MIN_BREAKPOINTS
        ):
            view = self._int_view()
            if view is not None:
                view = _vec.exact_clamp(view, window.start, window.end)
                if view is not None:
                    return RateProfile._from_exact_arrays(view)
        self._ensure_index()
        times = self._times
        points: list[Tuple[Time, Time]] = [(window.start, self.rate_at(window.start))]
        lo = bisect_right(times, window.start)
        hi = bisect_left(times, window.end)
        points.extend(self._points[lo:hi])
        if not math.isinf(window.end):
            points.append((window.end, 0))
        return RateProfile(points)

    def shift(self, delta: Time) -> "RateProfile":
        """The profile translated in time by ``delta``."""
        return RateProfile((t + delta, rate) for t, rate in self._points)

    def cap(self, ceiling: "RateProfile") -> "RateProfile":
        """Pointwise minimum with another profile."""
        if self.is_zero or ceiling.is_zero:
            return _ZERO
        views = _exact_views((self, ceiling))
        if views is not None:
            view = _vec.exact_cap(*views)
            if view is not None:
                return RateProfile._from_exact_arrays(view)
        pair = self._vector_pair(ceiling)
        if pair is not None:
            return RateProfile._from_float_arrays(*_vec.cap(*pair))
        return RateProfile(
            (t, min(ra, rb)) for t, ra, rb in self._merged_rates(ceiling)
        )

    def dominates(self, other: "RateProfile") -> bool:
        """Pointwise ``self >= other`` everywhere."""
        if other.is_zero:
            return True
        views = _exact_views((self, other))
        if views is not None:
            verdict = _vec.exact_dominates(*views)
            if verdict is not None:
                return verdict
        pair = self._vector_pair(other)
        if pair is not None:
            return _vec.dominates(*pair)
        for _, ra, rb in self._merged_rates(other):
            if ra < rb:
                return False
        return True

    # ------------------------------------------------------------------
    # Dunder plumbing
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RateProfile):
            return NotImplemented
        if self._den and other._den:
            return _vec.exact_equal(self._exact_view(), other._exact_view())
        return self._points == other._points

    def __hash__(self) -> int:
        return hash(self._points)

    def __bool__(self) -> bool:
        return not self.is_zero

    def __repr__(self) -> str:
        inner = ", ".join(f"({t}, {r})" for t, r in self._points)
        return f"RateProfile([{inner}])"


_ZERO = RateProfile(())


def profile_from_points(points: Sequence[Tuple[Time, Time]]) -> RateProfile:
    """Public helper: build a profile from raw breakpoints."""
    return RateProfile(points)


# ----------------------------------------------------------------------
# Reference oracles.
#
# The pre-optimisation implementations, retained verbatim so differential
# tests and benchmarks can pin the fast paths to them: over exhaustive
# small-integer enumerations the fast result must equal the reference
# result *exactly* (not approximately), so the tier-1 theorem benchmarks
# cannot drift.
# ----------------------------------------------------------------------

def _reference_rate_at(profile: RateProfile, t: Time) -> Time:
    """Linear-scan ``rate_at``."""
    rate: Time = 0
    for time, value in profile.breakpoints:
        if time > t:
            break
        rate = value
    return rate


def _reference_integral(profile: RateProfile, window: Interval) -> Time:
    """Full segment-scan ``integral``."""
    if window.is_empty or profile.is_zero:
        return 0
    total: Time = 0
    for segment, rate in profile.segments():
        common = segment.intersection(window)
        if not common.is_empty:
            total += rate * common.duration
    return total


def _reference_min_rate(profile: RateProfile, window: Interval) -> Time:
    """Full segment-scan ``min_rate`` with explicit coverage accounting.

    Coverage is tracked as a frontier over the (time-ordered, gap-free
    within support) segments rather than by summing durations: a sum of
    mixed float/Fraction durations accrues rounding dust and can declare
    a fully-covered window uncovered (returning a spurious 0).  The
    frontier only *compares* coordinates, which is exact for every
    supported numeric type.
    """
    if window.is_empty:
        raise UndefinedOperationError("min_rate over an empty window")
    lowest: Optional[Time] = None
    frontier = window.start
    for segment, rate in profile.segments():
        common = segment.intersection(window)
        if common.is_empty:
            continue
        if common.start <= frontier and common.end > frontier:
            frontier = common.end
        lowest = rate if lowest is None else min(lowest, rate)
    if lowest is None or frontier < window.end:
        return 0
    return lowest


def _reference_earliest_accumulation(
    profile: RateProfile, start: Time, quantity: Time
) -> Optional[Time]:
    """Origin-anchored segment walk for the earliest accumulation time."""
    if quantity <= 0:
        return start
    remaining = quantity
    for segment, rate in profile.segments():
        if segment.end <= start:
            continue
        effective_start = max(start, segment.start)
        capacity = rate * (segment.end - effective_start)
        if capacity >= remaining:
            return effective_start + exact_div(remaining, rate)
        remaining -= capacity
    return None


def _reference_add(left: RateProfile, right: RateProfile) -> RateProfile:
    """Pointwise addition by rate_at evaluation at merged breaktimes."""
    if left.is_zero:
        return right
    if right.is_zero:
        return left
    times = sorted(
        {t for t, _ in left.breakpoints} | {t for t, _ in right.breakpoints}
    )
    return RateProfile(
        (t, _reference_rate_at(left, t) + _reference_rate_at(right, t))
        for t in times
    )


def _reference_subtract(left: RateProfile, right: RateProfile) -> RateProfile:
    """Pointwise subtraction by rate_at evaluation at merged breaktimes."""
    if right.is_zero:
        return left
    times = sorted(
        {t for t, _ in left.breakpoints} | {t for t, _ in right.breakpoints}
    )
    points: list[Tuple[Time, Time]] = []
    for t in times:
        value = _reference_rate_at(left, t) - _reference_rate_at(right, t)
        if value < 0:
            if not is_exact(value) and -value <= EPSILON:
                value = 0
            else:
                raise UndefinedOperationError(
                    f"subtraction would make the rate negative at t={t!r}"
                )
        points.append((t, value))
    return RateProfile(points)


def _reference_from_segments(
    segments: Iterable[Tuple[Interval, Time]]
) -> RateProfile:
    """Quadratic repeated-addition ``from_segments``."""
    profile = _ZERO
    for window, rate in segments:
        profile = _reference_add(profile, RateProfile.constant(rate, window))
    return profile
