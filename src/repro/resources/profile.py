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
share that surface, each with one working form besides the tuples:

* **Exact** profiles (every coordinate ``int``/``Fraction``) hold
  parallel Python ``times``/``rates`` lists and run on the scalar code
  in this module, so every result has the type Python's arithmetic
  gives it (``Fraction(2, 1)`` stays a Fraction, ``2`` stays an int).
  No EPSILON is involved.  A commit is a local edit: adding or
  subtracting a claim (bounded support: its last rate is the int 0)
  merges only the breakpoints inside the claim's window and splices
  them between the untouched slices of the lists.  Point queries,
  accumulation walks and window integrals bisect to their start and
  read only the segments they cover.  Once a list of at least
  :data:`KEY_INDEX_MIN` times holds a ``Fraction``, the profile also
  keeps a float key index, one correctly rounded double per time (see
  :func:`float_key`), and an exact key bisects the doubles first: only
  the times that round onto the key's double are compared as
  Fractions, so a search makes none whenever no breakpoint shares that
  double.  The index is derived (never pickled), and a splice or prefix
  cut converts only the times it adds.  Short and all-int lists, float
  keys and inexact profiles bisect the times directly.
* **Inexact** profiles (some float coordinate) batch onto the float64
  kernels in :mod:`repro.resources._vectorized` whenever every
  coordinate is losslessly float64-representable; they reproduce the
  scalar float path's IEEE-754 operation order bit-for-bit.  Vec-built
  float profiles carry float coordinates, so an int that rode along in
  an inexact profile comes back as the equal float (``2 -> 2.0``).
  Commits are local edits here too (a claim's last rate is ``+0.0``),
  and queries read the arrays in place: the bisect index and rate list
  are memoryviews, and ``clamp`` copies only the window's breakpoints.

Splice and kernel results stay in list or array form; the breakpoint
tuples are built only on demand (equality, hashing, pickling, the
sweeps).

The two-pointer merge over both breakpoint lists (``_merged_rates``,
the *sweep*) answers every other binary operation: exact pairs whose
right operand has unbounded support, ``cap`` and ``saturating_sub`` on
exact profiles, and float work without numpy or with coordinates
float64 cannot hold.  The naive implementations are retained below as
``_reference_*`` oracles; ``tests/test_profile_fastpath.py`` and
``tests/test_profile_differential.py`` pin every path to them (values,
types and exceptions), and ``benchmarks/bench_profile_ops.py`` tracks the
speedup.
"""

from __future__ import annotations

import heapq
import itertools
import math
from bisect import bisect_left, bisect_right, insort
from fractions import Fraction
from numbers import Rational
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import InvalidTermError, UndefinedOperationError
from repro.intervals.interval import Interval, Time
from repro.resources import _vectorized as _vec

#: Tolerance used when float arithmetic is involved.  Exact numeric types
#: (int, Fraction) never need it.
EPSILON = 1e-9  # repro-lint: disable=flow-exactness -- the sanctioned float-tolerance boundary itself (see is_exact below)


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


#: Fewest breakpoint times that get a float key index.  A shorter list is
#: bisected in at most three exact comparisons, which cost less than
#: converting its Fraction times.
KEY_INDEX_MIN = 8


def float_key(value: Time) -> float:
    """``float(value)``, saturated to +-inf where it overflows.

    Correctly rounded conversion (``int`` and ``Fraction`` both round to
    nearest) is monotone: ``float_key(a) < float_key(b)`` implies
    ``a < b``, so comparing keys orders any two times whose keys differ,
    and only times with equal keys need an exact comparison."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _float_keys(times: Sequence[Time]) -> List[float]:
    """The float key index of exact ``times``: one
    :func:`float_key` each."""
    try:
        return list(map(float, times))
    except OverflowError:
        return [float_key(t) for t in times]


def _bisect_left_exact(
    times: Sequence[Time], keys: List[float], key: Time, lo: int = 0
) -> int:
    """``bisect_left(times, key, lo)`` for an exact ``key``, with
    ``keys`` the float key index of ``times``.

    The doubles bound the run ``[lo, hi)`` of times whose key equals
    ``key``'s: every time before it is smaller than ``key``, every time
    after it larger.  Only that run is searched exactly, so a key no
    breakpoint rounds onto costs no exact comparison at all."""
    try:  # float_key, inlined: one Python frame per search
        k = float(key)
    except OverflowError:
        k = math.inf if key > 0 else -math.inf
    lo = bisect_left(keys, k, lo)
    return bisect_left(times, key, lo, bisect_right(keys, k, lo))


def _bisect_right_exact(
    times: Sequence[Time], keys: List[float], key: Time, lo: int = 0
) -> int:
    """``bisect_right(times, key, lo)`` for an exact ``key``: see
    :func:`_bisect_left_exact`."""
    try:  # float_key, inlined
        k = float(key)
    except OverflowError:
        k = math.inf if key > 0 else -math.inf
    lo = bisect_left(keys, k, lo)
    return bisect_right(times, key, lo, bisect_right(keys, k, lo))


def _negative(t: Time, ra: Time, rb: Time) -> UndefinedOperationError:
    """The error a subtraction raises where its rate would go negative."""
    return UndefinedOperationError(
        f"subtraction would make the rate negative at t={t!r} ({ra!r} - {rb!r})"
    )


def _past_float_range(operation: str, **operands: Time) -> UndefinedOperationError:
    """The error for exact operands a float profile cannot meet.

    A float rate times (or plus) an exact time past float range converts
    the time to float and overflows; the caller gets this typed error
    naming the first operand past float range instead of Python's bare
    ``OverflowError``."""
    for name, value in operands.items():
        try:
            float(value)
        except OverflowError:
            bits = abs(int(value)).bit_length()
            return UndefinedOperationError(
                f"{operation}: {name} (an exact {type(value).__name__} of "
                f"{bits} bits) lies past float range, and the profile's "
                "float rates cannot meet it"
            )
    return UndefinedOperationError(
        f"{operation}: the answer lies past float range for a profile of "
        "float rates"
    )


class RateProfile:
    """An immutable, piecewise-constant, non-negative function of time.

    The breakpoint tuples (``_pts``) are the canonical form.  A splice
    result holds only the parallel lists every profile builds as its
    bisect index (``_times``/``_rl``; exact only), and a float kernel
    result only float64 arrays (``_vt``/``_vr`` with ``_vok`` set;
    inexact only).  Either builds the tuples on demand.  Beside the
    lists, an exact profile of at least :data:`KEY_INDEX_MIN` times, one
    of them a ``Fraction``, keeps ``_keys``, the float key of each time,
    which the exact searches bisect first (``None`` for shorter or
    all-int lists and inexact profiles; a prefix cut or splice of an
    indexed profile carries it on).
    """

    __slots__ = ("_pts", "_times", "_exact", "_vt", "_vr", "_vok", "_rl", "_keys")

    def __init__(self, points: Iterable[Tuple[Time, Time]] = ()) -> None:
        pts = _normalise(points)
        for time, rate in pts:
            if isinstance(time, float) and math.isnan(time):
                raise InvalidTermError("profile breakpoint time must not be NaN")
            if isinstance(rate, float) and math.isnan(rate):
                raise InvalidTermError("profile rate must not be NaN")
            if rate < 0:
                raise InvalidTermError(f"profile rate must be >= 0, got {rate!r} at t={time!r}")
        self._pts: Optional[tuple] = pts
        self._times: Optional[Sequence[Time]] = None
        self._exact: Optional[bool] = None
        self._vt = None
        self._vr = None
        self._vok: Optional[bool] = None
        self._rl: Optional[Sequence[Time]] = None
        self._keys: Optional[List[float]] = None

    @property
    def _points(self) -> tuple[Tuple[Time, Time], ...]:
        """Canonical breakpoint tuples.

        List- and array-built profiles materialize them only when
        something actually needs them (equality, hashing, the sweeps):
        the hot admission chains — subtract, add, clamp, integral,
        accumulation walks — read the lists or arrays end to end."""
        pts = self._pts
        if pts is None:
            if self._vt is None:
                pts = tuple(zip(self._times, self._rl))
            else:
                pts = tuple(zip(self._vt.tolist(), self._vr.tolist()))
            self._pts = pts
        return pts

    def _rates(self) -> Sequence[Time]:
        """Rates by breakpoint position, built lazily (float-vec-built
        profiles hand out a memoryview of the rate array, no copy)."""
        rl = self._rl
        if rl is None:
            if self._pts is None:
                rl = memoryview(self._vr)
            else:
                rl = [r for _, r in self._pts]
            self._rl = rl
        return rl

    def _is_exact(self) -> bool:
        """Whether every coordinate is an ``int`` or a ``Fraction``,
        computed once.  Other ``Rational`` types (``bool``, numpy
        integers) do not count: the splice relies on ``x + 0`` and
        ``x - 0`` keeping ``x``'s type, which ``True + 0`` does not."""
        exact = self._exact
        if exact is None:
            exact = self._exact = all(
                type(v) is int or type(v) is Fraction
                for point in self._pts for v in point
            )
        return exact

    def _ensure_index(self) -> None:
        """Build the breakpoint times for bisection on first use, and
        their float key index when the profile is exact and there are at
        least :data:`KEY_INDEX_MIN` times, one of them a Fraction."""
        if self._times is not None:
            return
        if self._pts is None:
            self._times = memoryview(self._vt)  # float-vec-built: no copy
            return
        times = self._times = [t for t, _ in self._pts]
        if (
            len(times) >= KEY_INDEX_MIN
            and Fraction in map(type, times)
            and self._is_exact()
        ):
            self._keys = _float_keys(times)

    def _vector_index(self):
        """Float64 ``(times, rates)`` arrays for the vectorized kernels,
        or ``None`` when the profile is not losslessly representable
        (Fraction coordinates, huge ints) or numpy is unavailable."""
        if self._vok is None:
            pts = self._points
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
        the splice or the sweep answers."""
        if self._is_exact() and other._is_exact():
            return None
        va = self._vector_index()
        if va is None:
            return None
        vb = other._vector_index()
        if vb is None:
            return None
        return va, vb

    def _window(self, other: "RateProfile"):
        """The window merge of an exact pair whose right operand has
        bounded support, or ``None`` when the sweep must answer.

        ``other`` has bounded support when its last rate is the int 0
        (every clamp to a finite window has one): before its first
        breakpoint and from its last one on, the sweep adds or removes
        the int 0, which leaves ``self``'s values *and* types as they
        are.  Returns ``(lo, hi, before, rows)``: ``self``'s breakpoints
        ``lo:hi`` lie inside ``other``'s support, ``before`` is
        ``self``'s rate ahead of them, and ``rows`` holds one
        ``(time, self_rate, other_rate)`` per breakpoint of either
        profile there, as :meth:`_merged_rates` yields them (a time both
        hold keeps ``self``'s)."""
        if not (self._is_exact() and other._is_exact()):
            return None
        rates_b = other._rates()
        last = rates_b[-1]
        if type(last) is not int or last != 0:
            return None
        self._ensure_index()
        other._ensure_index()
        times_a, rates_a, times_b = self._times, self._rates(), other._times
        m = len(times_b)
        keys = self._keys
        if keys is None:
            lo = bisect_left(times_a, times_b[0])
            hi = bisect_right(times_a, times_b[m - 1], lo)
        else:
            lo = _bisect_left_exact(times_a, keys, times_b[0])
            hi = _bisect_right_exact(times_a, keys, times_b[m - 1], lo)
        rate_a = rates_a[lo - 1] if lo else 0
        before = rate_a
        rate_b = 0
        rows = []
        i, j = lo, 0
        while j < m:
            t = times_b[j]
            if i < hi and times_a[i] <= t:
                at = times_a[i]
                rate_a = rates_a[i]
                i += 1
                if at == t:
                    rate_b = rates_b[j]
                    j += 1
                rows.append((at, rate_a, rate_b))
            else:
                rate_b = rates_b[j]
                rows.append((t, rate_a, rate_b))
                j += 1
        return lo, hi, before, rows

    def _splice(self, lo: int, hi: int, before: Time, rows) -> "RateProfile":
        """``self``'s lists before ``lo``, the window ``rows`` (``(time,
        rate)`` pairs) and the lists from ``hi`` on, normalised as the
        sweep would be.  Only the window needs it, against ``before``
        (the rate ahead of it, the int 0 at the front, which also drops
        a leading zero): ``self`` is normalised, and the window's last
        row (the right operand's zero end) carries ``self``'s own rate
        there, which differs from the suffix's first.

        Each list is copied once and its window replaced in place, which
        moves the suffix without a second copy."""
        window_times: list = []
        window_rates: list = []
        for t, rate in rows:
            if rate != before:
                window_times.append(t)
                window_rates.append(rate)
                before = rate
        times = self._times[:]
        times[lo:hi] = window_times
        rates = self._rl[:]
        rates[lo:hi] = window_rates
        keys = self._keys
        if keys is not None:
            keys = keys[:]
            keys[lo:hi] = _float_keys(window_times)
        elif len(times) >= KEY_INDEX_MIN and Fraction in map(
            # A long list without an index holds no Fraction: only the
            # window can bring one.
            type, window_times if len(self._times) >= KEY_INDEX_MIN else times
        ):
            keys = _float_keys(times)
        return RateProfile._from_lists(times, rates, keys)

    @classmethod
    def _from_lists(
        cls, times: list, rates: list, keys: Optional[List[float]]
    ) -> "RateProfile":
        """Adopt normalised exact ``times``/``rates`` lists and their
        float key index (``None`` where the times need none) as a
        profile (splice and prefix-cut results only): no tuples are
        built, and the lists are the bisect index."""
        if not times:
            return _ZERO
        profile = cls.__new__(cls)
        profile._pts = None  # materialized on demand from the lists
        profile._times = times
        profile._rl = rates
        profile._keys = keys
        profile._exact = True
        profile._vt = profile._vr = None
        profile._vok = None
        return profile

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
        profile._exact = False
        profile._vt = times
        profile._vr = rates
        profile._vok = True
        profile._rl = None
        profile._keys = None
        return profile

    def __reduce__(self):
        # Serialize the canonical breakpoints only: the lazy indexes and
        # array forms are caches, rebuilt on demand after unpickling
        # (keeps checkpoint payloads small and independent of which
        # queries happened to run before the snapshot).  Pickling leaves
        # a list-form profile in list form.
        pts = self._pts
        if pts is None and self._vt is None:
            pts = tuple(zip(self._times, self._rl))
        return (RateProfile, (pts if pts is not None else self._points,))

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def constant(cls, rate: Time, window: Interval) -> "RateProfile":
        """Rate ``rate`` throughout ``window``, zero elsewhere."""
        if window.is_empty or rate == 0:
            return _ZERO
        if window.end == math.inf:
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
        events: list[Tuple[Time, Time]] = []
        for start, end, rate in live:
            events.append((start, rate))
            if end != math.inf:
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

        Equivalent to folding through ``+`` in value (the per-breakpoint
        rate sums keep the fold's left-to-right association, so float
        results do not drift from the pairwise definition) but visits
        every breakpoint once instead of once per partial sum.

        The merge pops breakpoints off a heap keyed ``(time, position)``,
        so equal times of different types meet in profile order and the
        first profile's time stands for them, and a time touches only
        the profiles with a breakpoint there.  The level at a time sums,
        in profile order, the rates that are not the int 0 (adding the
        int 0 changes neither a value nor its type), so claims that take
        turns on a resource cost ``O(log k)`` per breakpoint, not
        ``O(k)``.
        """
        live = [p for p in profiles if not p.is_zero]
        if not live:
            return _ZERO
        if len(live) == 1:
            return live[0]
        if not all(p._is_exact() for p in live):
            arrays = [p._vector_index() for p in live]
            if all(a is not None for a in arrays):
                return cls._from_float_arrays(*_vec.sum_profiles(arrays))
        point_lists = [p._points for p in live]
        heap = [(pts[0][0], k) for k, pts in enumerate(point_lists)]
        heapq.heapify(heap)
        cursors = [0] * len(live)
        rates: list[Time] = [0] * len(live)
        # Positions whose rate is not the int 0, in profile order.
        active: list[int] = []
        points: list[Tuple[Time, Time]] = []
        while heap:
            t = heap[0][0]
            while heap and heap[0][0] == t:
                k = heapq.heappop(heap)[1]
                pts = point_lists[k]
                i = cursors[k]
                before, rate = rates[k], pts[i][1]
                was_zero = type(before) is int and before == 0
                is_zero = type(rate) is int and rate == 0
                if was_zero and not is_zero:
                    insort(active, k)
                elif is_zero and not was_zero:
                    del active[bisect_left(active, k)]
                rates[k] = rate
                i += 1
                cursors[k] = i
                if i < len(pts):
                    heapq.heappush(heap, (pts[i][0], k))
            level: Time = 0
            for k in active:
                level = level + rates[k]
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
            return False  # list- and array-built profiles are never empty
        return not pts

    def rate_at(self, t: Time) -> Time:
        """The rate in effect at time ``t`` (``O(log n)``)."""
        if type(t) is float and t != t:
            raise InvalidTermError("rate_at: time t must not be NaN")
        if self.is_zero:
            return 0
        self._ensure_index()
        keys = self._keys
        if keys is None or type(t) is float:
            i = bisect_right(self._times, t) - 1
        else:
            i = _bisect_right_exact(self._times, keys, t) - 1
        return self._rates()[i] if i >= 0 else 0

    def rates_at(self, ts: Sequence[Time]) -> List[Time]:
        """Batch :meth:`rate_at`: the rate in effect at each query time.

        One vectorized bisection over all queries when the profile is
        inexact and both it and the query times are float64-safe; the
        results are the stored rate objects either way, identical to
        mapping :meth:`rate_at`.
        """
        for t in ts:
            if type(t) is float and t != t:
                raise InvalidTermError("rates_at: query time ts must not hold NaN")
        if self.is_zero:
            return [0] * len(ts)
        if not self._is_exact() and _vec.HAVE_NUMPY and all(
            _vec.coordinate_safe(t) for t in ts
        ):
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
    def horizon(self) -> Time:
        """Last breakpoint time (0 for the zero profile).  Past the
        horizon the rate is constant (usually zero)."""
        pts = self._pts
        if pts is not None:
            return pts[-1][0] if pts else 0
        if self._vt is None:
            return self._times[-1]  # list-built: never empty
        return self._vt[-1].item()  # vec-built: never empty

    @property
    def peak_rate(self) -> Time:
        """Maximum rate anywhere."""
        return max((rate for _, rate in self._points), default=0)

    def integral(self, window: Interval) -> Time:
        """Total quantity available during ``window``:
        the paper's ``r x tau`` generalised to step functions.

        A bisected segment scan, ``O(log n + k)`` for the ``k`` segments
        the window covers, that sums in the reference's order, so the
        answer has the oracle's value and type (bit for bit on floats).
        An inexact operation on float64-safe operands runs the same scan
        on the arrays.
        """
        if window.is_empty or self.is_zero:
            return 0
        start, end = window.start, window.end
        if not (self._is_exact() and is_exact(start) and is_exact(end)) and (
            _vec.coordinate_safe(start) and _vec.coordinate_safe(end)
        ):
            va = self._vector_index()
            if va is not None:
                return _vec.integral(va, start, end)
        self._ensure_index()
        times = self._times
        rates = self._rates()
        keys = self._keys
        if keys is None or type(start) is float or type(end) is float:
            lo = bisect_right(times, start) - 1
            hi = bisect_left(times, end)
        else:
            lo = _bisect_right_exact(times, keys, start) - 1
            hi = _bisect_left_exact(times, keys, end)
        if lo < 0:
            lo = 0
        try:
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
                if e == math.inf:
                    # A positive rate forever: no ``inf - s`` or ``total +
                    # inf``, which overflow for an exact ``s`` or ``total``
                    # past float range.
                    return math.inf
                if e > s:
                    total += rate * (e - s)
            return total
        except OverflowError:
            raise _past_float_range(
                "integral", window_start=start, window_end=end
            ) from None

    def min_rate(self, window: Interval) -> Time:
        """Minimum rate over a non-empty window (0 if any gap)."""
        if window.is_empty:
            raise UndefinedOperationError("min_rate over an empty window")
        if self.is_zero:
            return 0
        self._ensure_index()
        times = self._times
        start, end = window.start, window.end
        keys = self._keys
        if keys is None or type(start) is float or type(end) is float:
            lo = bisect_right(times, start) - 1
            hi = bisect_left(times, end)
        else:
            lo = _bisect_right_exact(times, keys, start) - 1
            hi = _bisect_left_exact(times, keys, end)
        if lo < 0:  # ``start`` lies before the first breakpoint
            return 0
        rates = self._rates()
        return min(rates[i] for i in range(lo, hi))

    def earliest_accumulation(self, start: Time, quantity: Time) -> Optional[Time]:
        """The earliest ``t >= start`` with ``integral((start, t)) >= quantity``.

        Returns ``None`` when the quantity can never be accumulated.  This
        is the primitive behind the greedy breakpoint search of Theorem 2.
        The walk bisects to the segment holding ``start`` and walks
        from there, so the cost is ``O(log n + k)`` for ``k`` segments
        actually drawn on (the reference walked every segment from the
        origin).
        """
        if type(start) is float and start != start:
            raise InvalidTermError("earliest_accumulation: start must not be NaN")
        if type(quantity) is float and quantity != quantity:
            raise InvalidTermError("earliest_accumulation: quantity must not be NaN")
        if quantity <= 0:
            return start
        if self.is_zero:
            return None
        self._ensure_index()
        times = self._times
        rates = self._rates()
        remaining = quantity
        keys = self._keys
        if keys is None or type(start) is float:
            lo = bisect_right(times, start) - 1
        else:
            lo = _bisect_right_exact(times, keys, start) - 1
        if lo < 0:
            lo = 0
        try:
            last = len(rates) - 1
            for i in range(lo, last + 1):
                rate = rates[i]
                if rate == 0:
                    continue
                if i == last:
                    # The last segment never ends, so any positive rate
                    # accumulates what remains (no ``inf - t``, which
                    # overflows for an exact ``t`` past float range).
                    if start == math.inf:
                        return None
                    return max(start, times[i]) + exact_div(remaining, rate)
                seg_end = times[i + 1]
                if seg_end <= start:
                    continue
                effective_start = max(start, times[i])
                capacity = rate * (seg_end - effective_start)
                if capacity >= remaining:
                    return effective_start + exact_div(remaining, rate)
                remaining -= capacity
            return None
        except OverflowError:
            raise _past_float_range(
                "earliest_accumulation", start=start, quantity=quantity
            ) from None

    def latest_accumulation(self, end: Time, quantity: Time) -> Optional[Time]:
        """The latest ``t <= end`` with ``integral((t, end)) >= quantity``.

        The time-reversed dual of :meth:`earliest_accumulation`; the
        primitive behind as-late-as-possible (ALAP) scheduling.  Returns
        ``None`` when the quantity cannot be accumulated before ``end``.
        """
        if type(end) is float and end != end:
            raise InvalidTermError("latest_accumulation: end must not be NaN")
        if type(quantity) is float and quantity != quantity:
            raise InvalidTermError("latest_accumulation: quantity must not be NaN")
        if quantity <= 0:
            return end
        if self.is_zero:
            return None
        self._ensure_index()
        times = self._times
        rates = self._rates()
        remaining = quantity
        keys = self._keys
        # Segments hi.. start at or after end.
        if keys is None or type(end) is float:
            hi = bisect_left(times, end)
        else:
            hi = _bisect_left_exact(times, keys, end)
        try:
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
        except OverflowError:
            raise _past_float_range(
                "latest_accumulation", end=end, quantity=quantity
            ) from None

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
        window = self._window(other)
        if window is not None:
            lo, hi, before, rows = window
            return self._splice(lo, hi, before, [
                (t, ra + rb) for t, ra, rb in rows
            ])
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
        window = self._window(other)
        if window is not None:
            lo, hi, before, rows = window
            out = []
            for t, ra, rb in rows:
                value = ra - rb
                if value < 0:
                    raise _negative(t, ra, rb)
                out.append((t, value))
            return self._splice(lo, hi, before, out)
        # Vectorize only under a sub-unit tolerance: integer-valued
        # differences are exact for the scalar path (they raise however
        # small), and any |diff| >= 1 also exceeds a sub-unit tolerance,
        # so the float64 kernel cannot mistake one for snappable dust.
        pair = self._vector_pair(other) if tolerance < 1 else None
        if pair is not None:
            result = _vec.subtract(*pair, tolerance)
            if result[0] == "negative":
                raise _negative(*result[1:])
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
                    raise _negative(t, ra, rb)
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
        pair = self._vector_pair(other)
        if pair is not None:
            return RateProfile._from_float_arrays(*_vec.saturating_sub(*pair))
        return RateProfile(
            (t, max(0, ra - rb)) for t, ra, rb in self._merged_rates(other)
        )

    def scale(self, factor: Time) -> "RateProfile":
        """The profile with every rate multiplied by a finite ``factor >= 0``."""
        if type(factor) is float and not math.isfinite(factor):
            raise InvalidTermError(f"scale factor must be finite, got {factor!r}")
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
        self._ensure_index()
        times = self._times
        rates = self._rates()
        start, end = window.start, window.end
        keys = self._keys
        if keys is None or type(start) is float or type(end) is float:
            lo = bisect_right(times, start)
            hi = bisect_left(times, end)
        else:
            lo = _bisect_right_exact(times, keys, start)
            hi = _bisect_left_exact(times, keys, end)
        points: list[Tuple[Time, Time]] = [(start, rates[lo - 1] if lo else 0)]
        # Read the window in place, whatever the form.
        points.extend(zip(times[lo:hi], rates[lo:hi]))
        if end != math.inf:
            points.append((end, 0))
        return RateProfile(points)

    def truncate_before(self, t: Time) -> "RateProfile":
        """The profile with everything before ``t`` dropped: ``clamp``
        to ``(t, inf)``, the expiry of availability in the past.

        On an exact profile and an exact ``t`` this is a prefix cut:
        bisect to ``t``, keep the lists from there, and put ``t`` in
        front with the rate in effect there (none when that rate is 0).
        The kept suffix is normalised already, so the result is
        ``clamp``'s in value and type.  Other profiles take ``clamp``."""
        if self.is_zero:
            return _ZERO
        if not (
            (type(t) is int or type(t) is Fraction) and self._is_exact()
        ):
            return self.clamp(Interval(t, math.inf))
        self._ensure_index()
        times = self._times
        keys = self._keys
        if keys is None:
            lo = bisect_right(times, t)
        else:
            lo = _bisect_right_exact(times, keys, t)
        if lo == 0:
            return self
        rates = self._rates()
        edge = rates[lo - 1]
        if edge == 0:
            return RateProfile._from_lists(
                times[lo:], rates[lo:], None if keys is None else keys[lo:]
            )
        times = [t] + times[lo:]
        if keys is not None:
            keys = [float_key(t)] + keys[lo:]
        elif type(t) is Fraction and len(times) >= KEY_INDEX_MIN:
            keys = _float_keys(times)
        return RateProfile._from_lists(times, [edge] + rates[lo:], keys)

    def shift(self, delta: Time) -> "RateProfile":
        """The profile translated in time by ``delta``."""
        return RateProfile((t + delta, rate) for t, rate in self._points)

    def cap(self, ceiling: "RateProfile") -> "RateProfile":
        """Pointwise minimum with another profile."""
        if self.is_zero or ceiling.is_zero:
            return _ZERO
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
        window = self._window(other)
        if window is not None:
            # Outside the window every rate is compared with the int 0.
            return all(ra >= rb for _, ra, rb in window[3])
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
        return self._points == other._points

    def __hash__(self) -> int:
        return hash(self._points)

    def __bool__(self) -> bool:
        return not self.is_zero

    def __repr__(self) -> str:
        inner = ", ".join(f"({t}, {r})" for t, r in self._points)
        return f"RateProfile([{inner}])"


_ZERO = RateProfile(())


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
    try:
        for segment, rate in profile.segments():
            common = segment.intersection(window)
            if common.end == math.inf:
                return math.inf  # a positive rate forever
            if not common.is_empty:
                total += rate * common.duration
    except OverflowError:
        raise _past_float_range(
            "integral", window_start=window.start, window_end=window.end
        ) from None
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
    try:
        for segment, rate in profile.segments():
            if segment.end <= start:
                continue
            effective_start = max(start, segment.start)
            if segment.end == math.inf:
                # A positive rate that never ends accumulates any quantity.
                return effective_start + exact_div(remaining, rate)
            capacity = rate * (segment.end - effective_start)
            if capacity >= remaining:
                return effective_start + exact_div(remaining, rate)
            remaining -= capacity
    except OverflowError:
        raise _past_float_range(
            "earliest_accumulation", start=start, quantity=quantity
        ) from None
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


def _reference_sum(profiles: Iterable[RateProfile]) -> RateProfile:
    """``sum``'s exact sweep before the heap merge: every breakpoint time
    of every profile visits every profile (``O(T k)``).  The types it
    gives are :meth:`RateProfile.sum`'s; the pairwise ``+`` fold matches
    them in value, and in type where the profiles' supports are
    disjoint."""
    live = [p for p in profiles if not p.is_zero]
    if not live:
        return _ZERO
    if len(live) == 1:
        return live[0]
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
    return RateProfile(points)
