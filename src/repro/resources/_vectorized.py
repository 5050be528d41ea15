"""Vectorized (numpy) kernels for both profile arithmetic regimes.

:class:`~repro.resources.profile.RateProfile` runs its algebra on arrays
in both of its regimes, and this module holds every kernel.  It is the
only place in the tree allowed to import numpy (enforced by the
``layering`` lint rule's third-party pin), so the exactness boundary
stays auditable.

* **Exact** profiles (every coordinate ``int``/``Fraction``) run on the
  scaled-integer kernels (``exact_*``, bottom of the module): int64
  numerators over one common denominator per profile.  No float and no
  EPSILON is involved, so the answers are exact by construction.
  ``earliest_accumulation`` walks forward from the segment holding
  ``start`` in the scalar path's own arithmetic; only window integrals
  build the whole-profile prefix sums.
* **Inexact** profiles (some float coordinate) run on the float64
  kernels (everything else).

In both regimes ``add``, ``subtract`` and ``dominates`` against a right
operand with bounded support (last rate the int 0 or ``+0.0``, as every
admission claim has) are window-local: a short Python merge over the
breakpoints inside that support, spliced between the left operand's
untouched prefix and suffix and renormalised only at the seams.  The
whole-array merge still answers windows wider than
:data:`WINDOW_MAX_ROWS` rows, and the splice answers exactly as it
would (value, type and bound on the integer form; every bit on float64).

The scalar Fraction path in ``profile.py`` remains the fallback (no
numpy, a value that would overflow int64 after rescaling, a ``Rational``
that is neither ``int`` nor ``Fraction``) and the ``_reference_*``
oracle chain.

Float bit-identity contract: every float kernel reproduces the scalar
float path's IEEE-754 operation order exactly —

* elementwise add/subtract/min/compare are order-free,
* per-time rate sums fold left-to-right over the operand list (matching
  ``RateProfile.sum``'s per-breakpoint accumulation), and
* window integrals accumulate per-segment contributions in time order
  via ``cumsum`` (sequential prefix sums, never pairwise reduction).

The window splice keeps the contract: it does the same elementwise
operations on Python floats (IEEE-754 doubles, like float64), and
outside the window the whole-array kernels add or subtract ``+0.0``,
which leaves every rate as it is except that a sum turns ``-0.0`` into
``+0.0`` — so ``add`` passes the untouched rates through ``+ 0.0``
too.  A time both operands hold keeps the left operand's value
(``-0.0`` against ``0.0`` included), as the scalar sweep does.

``tests/test_profile_differential.py`` fuzzes this agreement against
the ``_reference_*`` oracles, and the splice against the whole-array
kernels bit for bit.

Coordinates are converted to float64, so the kernels only accept
profiles whose coordinates are floats or integers small enough to be
exactly representable (``|v| <= 2**53``); anything else — Fractions
above all — stays on the scalar path.  Integer coordinates come back
as floats (``2 -> 2.0``): numerically equal, but callers that branch
on :func:`~repro.resources.profile.is_exact` must treat vec-built
profiles as inexact, which they are by construction.

Integer-form type contract: each coordinate carries a "is a Fraction"
bit, so a value comes back as a ``Fraction`` exactly when the scalar
path would have produced one (``Fraction(2, 1)`` and ``2`` serialize
differently).  The bits follow Python's numeric tower: ``+``/``-`` give
a Fraction if either operand is one; ``min``/``max`` and pass-through
values keep the type of the chosen operand, the first one on a tie; the
rate before a profile's first breakpoint is the int ``0``.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

try:  # pragma: no cover - numpy is in the baked image; keep a soft gate
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None  # type: ignore[assignment]

#: Largest integer magnitude exactly representable in float64.
_MAX_SAFE_INT = 2 ** 53

HAVE_NUMPY = _np is not None


def coordinate_safe(value: object) -> bool:
    """Whether ``value`` converts to float64 without losing information."""
    if type(value) is float:
        return not math.isnan(value)
    if type(value) is int:
        return -_MAX_SAFE_INT <= value <= _MAX_SAFE_INT
    return False


def points_safe(points: Sequence[Tuple[object, object]]) -> bool:
    """Whether every breakpoint coordinate is float64-representable."""
    return all(
        coordinate_safe(t) and coordinate_safe(r) for t, r in points
    )


def arrays_from_points(points):
    """``(times, rates)`` float64 arrays for a breakpoint tuple."""
    times = _np.empty(len(points), dtype=_np.float64)
    rates = _np.empty(len(points), dtype=_np.float64)
    for i, (t, r) in enumerate(points):
        times[i] = t
        rates[i] = r
    return times, rates


def normalise_arrays(times, rates):
    """Array analogue of ``profile._normalise`` for already-sorted,
    duplicate-free times: merge consecutive equal rates, drop a leading
    zero-rate breakpoint."""
    n = len(times)
    if n == 0:
        return times, rates
    keep = _np.empty(n, dtype=bool)
    keep[0] = True
    _np.not_equal(rates[1:], rates[:-1], out=keep[1:])
    times = times[keep]
    rates = rates[keep]
    if len(rates) and rates[0] == 0.0:
        times = times[1:]
        rates = rates[1:]
    return times, rates


def _rates_at_times(ta, ra, times):
    """Operand rates at each of ``times``: the rate of the last
    breakpoint at or before each time, zero before the first (and
    everywhere for an empty — zero — operand)."""
    if len(ra) == 0:
        return _np.zeros(len(times), dtype=_np.float64)
    ia = _np.searchsorted(ta, times, side="right") - 1
    return _np.where(ia >= 0, ra[_np.maximum(ia, 0)], 0.0)


def _union(ta, tb):
    """Sorted distinct times of two sorted, duplicate-free time arrays
    (float64 or int64), merged by binary search rather than a sort.  A
    time both hold keeps ``ta``'s value, as the scalar sweeps keep the
    first operand's on a tie (``-0.0`` against ``0.0`` included).

    Returns ``(times, at_a, fresh, at_new)``: ``ta`` lands at
    ``times[at_a]``, and ``tb[fresh]`` (the times only ``tb`` holds) at
    ``times[at_new]``."""
    n = len(ta)
    pos = _np.searchsorted(ta, tb)
    inside = pos < n
    held = _np.zeros(len(tb), dtype=bool)
    held[inside] = ta[pos[inside]] == tb[inside]
    fresh = ~held
    new_t = tb[fresh]
    times = _np.empty(n + len(new_t), dtype=ta.dtype)
    at_a = _np.searchsorted(new_t, ta) + _np.arange(n)
    at_new = pos[fresh] + _np.arange(len(new_t))
    times[at_a] = ta
    times[at_new] = new_t
    return times, at_a, fresh, at_new


def merge(va, vb):
    """Union breaktimes plus each operand's rate at every breaktime.

    The vector analogue of ``RateProfile._merged_rates``: at time ``t``
    an operand's rate is that of its last breakpoint at or before ``t``
    (zero before the first).
    """
    ta, ra = va
    tb, rb = vb
    times = _union(ta, tb)[0]
    return times, _rates_at_times(ta, ra, times), _rates_at_times(tb, rb, times)


#: Rows (the right operand's breakpoints plus the left operand's inside
#: its support) up to which a bounded-support ``add``/``subtract``/
#: ``dominates`` merges in a Python loop and splices the result between
#: the left operand's untouched prefix and suffix, in either regime.
#: Past it numpy's whole-array merge is cheaper on the integer form; the
#: float crossover lies near 100 rows, and admission claims hold 2-10,
#: so one cap serves both (measured in EXPERIMENTS.md E24).
WINDOW_MAX_ROWS = 32


def _window(va, vb):
    """The window merge of a bounded-support float right operand.

    ``vb`` has bounded support when its last rate is ``+0.0`` (every
    clamp to a finite window has one): before its first breakpoint and
    from its last one on, the whole-array kernels add or subtract
    ``+0.0`` there.  Returns ``(lo, hi, before, rows)``: ``va``'s
    breakpoints ``lo:hi`` lie inside ``vb``'s support, ``before`` is
    ``va``'s rate ahead of it, and ``rows`` holds one ``(time, rate_a,
    rate_b)`` per breakpoint of either operand there, as :func:`merge`
    would (a shared time keeps ``va``'s value).  ``None`` sends the
    operation to the whole-array kernel: ``vb``'s last rate is not
    ``+0.0``, or the window holds more than :data:`WINDOW_MAX_ROWS`
    rows."""
    tb, rb = vb
    rates_b = memoryview(rb)
    m = len(rates_b)
    last = rates_b[m - 1]
    if last != 0.0 or math.copysign(1.0, last) < 0.0:
        return None
    ta, ra = va
    times_a, times_b = memoryview(ta), memoryview(tb)
    lo = bisect_left(times_a, times_b[0])
    hi = bisect_right(times_a, times_b[m - 1], lo)
    if hi - lo + m > WINDOW_MAX_ROWS:
        return None
    rates_a = memoryview(ra)
    rate_a = rates_a[lo - 1] if lo else 0.0
    before = rate_a
    rate_b = 0.0
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


def _splice(arrays, lo, hi, before, rows):
    """The left operand's ``arrays`` (times, rates, then any further
    per-breakpoint columns) before ``lo``, the window ``rows`` (one value
    per array) and the arrays from ``hi`` on, normalised as the whole
    sweep would be.  Only the window needs it, against ``before`` (the
    rate ahead of it): the left operand is normalised, and the window's
    last row (the right operand's zero end) carries the left operand's
    own rate there, which differs from the suffix's first.  Either
    regime: :func:`_window` and :func:`_exact_window` feed it."""
    kept = []
    for row in rows:
        if row[1] != before:
            kept.append(row)
            before = row[1]
    if not kept:
        return [_np.concatenate((array[:lo], array[hi:])) for array in arrays]
    # numpy reads the short Python columns straight into each result.
    return [
        _np.concatenate((array[:lo], column, array[hi:]))
        for array, column in zip(arrays, zip(*kept))
    ]


def add(va, vb):
    window = _window(va, vb)
    if window is not None:
        lo, hi, before, rows = window
        # Outside the window the whole-array sum adds +0.0, which turns
        # a -0.0 rate into +0.0.
        return _splice((va[0], va[1] + 0.0), lo, hi, before, [
            (t, rate_a + rate_b) for t, rate_a, rate_b in rows
        ])
    times, ra, rb = merge(va, vb)
    return normalise_arrays(times, ra + rb)


def subtract(va, vb, tolerance):
    """Pointwise difference with the scalar path's negativity contract.

    Returns either ``("profile", times, rates)`` or
    ``("negative", time, minuend_rate, subtrahend_rate)`` for the first
    (in time order) rate that goes negative beyond ``tolerance`` — the
    caller raises with the same message the scalar path uses.  NaN rates
    (inf - inf) survive into the result; profile construction rejects
    them exactly as the scalar path does.  A bounded-support ``vb``
    subtracts ``+0.0`` outside its window, which changes no rate, so
    only the window is checked and rewritten.
    """
    window = _window(va, vb)
    if window is not None:
        lo, hi, before, rows = window
        out = []
        nan = False
        for t, rate_a, rate_b in rows:
            diff = rate_a - rate_b
            if diff < 0.0:
                if -diff > tolerance:
                    return ("negative", t, rate_a, rate_b)
                diff = 0.0
            elif diff != diff:
                nan = True
            out.append((t, diff))
        if nan:
            return ("nan",)
        return ("profile", *_splice(va, lo, hi, before, out))
    times, ra, rb = merge(va, vb)
    diff = ra - rb
    negative = diff < 0.0
    if negative.any():
        bad = negative & (-diff > tolerance)
        if bad.any():
            k = int(_np.argmax(bad))
            return (
                "negative",
                times[k].item(),
                ra[k].item(),
                rb[k].item(),
            )
        diff = _np.where(negative, 0.0, diff)
    if _np.isnan(diff).any():
        # inf - inf: the scalar path lets the NaN reach profile
        # construction, which rejects it; signal the caller to do the
        # same (negativity was already ruled out above, matching the
        # scalar path's raise order).
        return ("nan",)
    return ("profile",) + normalise_arrays(times, diff)


def saturating_sub(va, vb):
    times, ra, rb = merge(va, vb)
    diff = _np.maximum(ra - rb, 0.0)
    if _np.isnan(diff).any():
        # max(0, inf - inf): Python's max(0, nan) compares False and
        # keeps the 0, so the scalar path clamps the NaN away.
        diff = _np.where(_np.isnan(diff), 0.0, diff)
    return normalise_arrays(times, diff)


def cap(va, vb):
    times, ra, rb = merge(va, vb)
    return normalise_arrays(times, _np.minimum(ra, rb))


def dominates(va, vb) -> bool:
    window = _window(va, vb)
    if window is not None:
        # Outside the window every rate is compared with +0.0, and
        # rates are never negative.
        return all(rate_a >= rate_b for _, rate_a, rate_b in window[3])
    _, ra, rb = merge(va, vb)
    return bool((ra >= rb).all())


def rate_indices(va, ts):
    """Breakpoint index in effect at each query time (-1: before all)."""
    times, _ = va
    return _np.searchsorted(times, _np.asarray(ts, dtype=_np.float64),
                            side="right") - 1


def integral(va, start, end):
    """Window integral by the scalar float path's bisected segment scan.

    Contributions are accumulated in time order with sequential prefix
    sums (``cumsum``), reproducing ``total += rate * (e - s)`` loop
    bit-for-bit; zero-rate and zero-width segments are skipped before
    any arithmetic, exactly as the scalar loop ``continue``s past them
    (this also keeps ``0 * inf`` from minting a NaN).
    """
    times, rates = va
    n = len(times)
    lo = int(_np.searchsorted(times, start, side="right")) - 1
    if lo < 0:
        lo = 0
    hi = int(_np.searchsorted(times, end, side="left"))
    if hi <= lo:
        return 0
    seg_rates = rates[lo:hi]
    seg_starts = _np.maximum(times[lo:hi], start)
    seg_ends = _np.empty(hi - lo, dtype=_np.float64)
    seg_ends[:-1] = times[lo + 1:hi]
    seg_ends[-1] = times[hi] if hi < n else math.inf
    _np.minimum(seg_ends, end, out=seg_ends)
    mask = (seg_rates != 0.0) & (seg_ends > seg_starts)
    if not mask.any():
        return 0
    contributions = seg_rates[mask] * (seg_ends[mask] - seg_starts[mask])
    if len(contributions) == 1:
        return contributions[0].item()
    return _np.cumsum(contributions)[-1].item()


def sum_profiles(operands):
    """K-way pointwise sum: per-breaktime rates fold left-to-right over
    ``operands`` (list order), matching the scalar ``RateProfile.sum``
    accumulation — so float results cannot drift from the pairwise
    ``+``-fold definition."""
    times = operands[0][0]
    for tk, _ in operands[1:]:
        times = _union(times, tk)[0]
    level = _np.zeros(len(times), dtype=_np.float64)
    for tk, rk in operands:
        level = level + _rates_at_times(tk, rk, times)
    return normalise_arrays(times, level)


def from_segments(segments: List[Tuple[float, float, float]]):
    """K-way constant-segment sum over ``(start, end, rate)`` triples.

    Breaktimes are the union of starts and finite ends; the rate at each
    breaktime folds left-to-right over the segment list, bit-identical
    to summing the equivalent ``constant()`` profiles."""
    raw = _np.array(
        [t for s, e, _ in segments for t in ((s,) if math.isinf(e) else (s, e))],
        dtype=_np.float64,
    )
    times = _np.sort(raw)
    first = _np.empty(len(times), dtype=bool)
    first[0] = True
    _np.not_equal(times[1:], times[:-1], out=first[1:])
    times = times[first]
    # The sort orders -0.0 and 0.0 arbitrarily: a zero keeps the value
    # that comes first in segment order, as the union of the segments'
    # constant profiles does.
    zeros = raw == 0.0
    if zeros.any():
        times[times == 0.0] = raw[zeros][0]
    level = _np.zeros(len(times), dtype=_np.float64)
    for start, end, rate in segments:
        level = level + _np.where((times >= start) & (times < end),
                                  rate, 0.0)
    return normalise_arrays(times, level)


# ----------------------------------------------------------------------
# Scaled-integer kernels (exact profiles)
#
# An exact profile's integer form is the view
# ``(den, times, rates, ftimes, frates, bound)``: each coordinate is an
# int64 numerator over the profile's one common denominator ``den``,
# ``ftimes``/``frates`` mark the coordinates that are Fractions, and
# ``bound`` (a Python int) is at least every numerator's magnitude.  The
# bound is propagated through the algebra, so overflow checks never
# touch the arrays; a kernel whose result could leave int64 returns
# ``None`` and the caller falls back to the scalar path.  These kernels
# never call the float kernels above (only private helpers are shared).
# ----------------------------------------------------------------------

#: Numerator magnitude an integer-form profile may hold: a sum or
#: difference of two such numerators still fits in int64.
EXACT_LIMIT = 2 ** 62
#: Bound under which every ``rate x duration`` prefix sum fits in int64
#: (``2 * bound ** 2 < 2 ** 63``).
_INTEGRAL_LIMIT = 2 ** 31


def _scaled(value, den: int) -> int:
    """Numerator of an int/Fraction ``value`` over ``den`` (``den`` is a
    multiple of the value's denominator)."""
    if type(value) is int:
        return value * den
    return value.numerator * (den // value.denominator)


def _floor_scaled(value, den: int) -> int:
    """``floor(value * den)``: the grid point a bisection for ``value``
    compares against (numerators are integers, so ``<= floor`` is
    ``<= value``)."""
    if type(value) is int:
        return value * den
    return (value.numerator * den) // value.denominator


def exact_scalar(numerator: int, den: int, is_fraction):
    """The Python value of one integer-form coordinate."""
    if is_fraction:
        return Fraction(numerator, den)
    return numerator // den


def _scalars(numerators: list, flags: list, den: int) -> list:
    if den == 1:
        return [Fraction(v) if f else v for v, f in zip(numerators, flags)]
    return [
        Fraction(v, den) if f else v // den for v, f in zip(numerators, flags)
    ]


def exact_arrays_from_points(points):
    """Integer form of an exact breakpoint tuple, or ``None`` when a
    coordinate is neither ``int`` nor ``Fraction`` (``bool``, numpy
    scalars and other ``Rational`` types stay scalar) or a numerator
    would reach :data:`EXACT_LIMIT`."""
    den = 1
    for t, r in points:
        if type(t) is not int:
            if type(t) is not Fraction:
                return None
            if den % t.denominator:
                den = math.lcm(den, t.denominator)
        if type(r) is not int:
            if type(r) is not Fraction:
                return None
            if den % r.denominator:
                den = math.lcm(den, r.denominator)
    times = [_scaled(t, den) for t, _ in points]
    rates = [_scaled(r, den) for _, r in points]
    bound = max(-times[0], times[-1], max(rates)) if points else 0
    if bound >= EXACT_LIMIT:
        return None
    return (
        den,
        _np.array(times, dtype=_np.int64),
        _np.array(rates, dtype=_np.int64),
        _np.array([type(t) is Fraction for t, _ in points], dtype=bool),
        _np.array([type(r) is Fraction for _, r in points], dtype=bool),
        bound,
    )


def exact_points(view) -> tuple:
    """The breakpoint tuple of an integer-form profile, with each
    coordinate's original type."""
    den, times, rates, ftimes, frates, _ = view
    return tuple(zip(
        _scalars(times.tolist(), ftimes.tolist(), den),
        _scalars(rates.tolist(), frates.tolist(), den),
    ))


def exact_equal(va, vb) -> bool:
    """Value equality of two integer-form profiles (types ignored, like
    ``==`` on the breakpoint tuples)."""
    if len(va[1]) != len(vb[1]):
        return False
    common = _common((va, vb))
    if common is None:
        return exact_points(va) == exact_points(vb)
    _, ((ta, ra, _), (tb, rb, _)) = common
    return bool(_np.array_equal(ta, tb) and _np.array_equal(ra, rb))


def _common(views):
    """Rescale several integer-form views onto one common denominator:
    ``(den, [(times, rates, bound), ...])``, or ``None`` on overflow."""
    den = views[0][0]
    for view in views[1:]:
        if den % view[0]:
            den = math.lcm(den, view[0])
    out = []
    for view in views:
        if view[0] == den:
            out.append((view[1], view[2], view[5]))
            continue
        factor = den // view[0]
        bound = view[5] * factor
        if bound >= EXACT_LIMIT:
            return None
        out.append((view[1] * factor, view[2] * factor, bound))
    return den, out


def _exact_union(ta, fa, tb, fb):
    """Sorted distinct breakpoint times of two operands (:func:`_union`)
    and their Fraction bits.  A time both hold keeps the first operand's
    bit — the object the scalar sweeps keep on a tie."""
    if len(ta) == 0:
        return tb, fb
    times, at_a, fresh, at_new = _union(ta, tb)
    flags = _np.empty(len(times), dtype=bool)
    flags[at_a] = fa
    flags[at_new] = fb[fresh]
    return times, flags


_NO_RATE = _np.zeros(1, dtype=_np.int64) if _np is not None else None
_NO_FLAG = _np.zeros(1, dtype=bool) if _np is not None else None


def _exact_at(times, rates, frates, at):
    """An operand's rate numerators and Fraction bits at each of ``at``:
    those of its last breakpoint at or before each time, else the int 0."""
    pos = _np.searchsorted(times, at, side="right")
    return (
        _np.concatenate((_NO_RATE, rates))[pos],
        _np.concatenate((_NO_FLAG, frates))[pos],
    )


def _exact_merge(va, vb):
    """Both operands on the union of their breakpoints (the integer
    analogue of ``RateProfile._merged_rates``), or ``None`` on overflow."""
    common = _common((va, vb))
    if common is None:
        return None
    den, ((ta, ra, ba), (tb, rb, bb)) = common
    times, ftimes = _exact_union(ta, va[3], tb, vb[3])
    rates_a, flags_a = _exact_at(ta, ra, va[4], times)
    rates_b, flags_b = _exact_at(tb, rb, vb[4], times)
    return den, times, ftimes, rates_a, flags_a, rates_b, flags_b, ba, bb


def _exact_normalise(den, times, rates, ftimes, frates, bound):
    """``profile._normalise`` for a sorted, duplicate-free sweep: keep
    the first breakpoint of every run of equal rates and drop a leading
    zero-rate run.  An empty result is the zero profile."""
    keep = _np.empty(len(times), dtype=bool)
    keep[0] = rates[0] != 0
    _np.not_equal(rates[1:], rates[:-1], out=keep[1:])
    if not keep.all():
        times = times[keep]
        rates = rates[keep]
        ftimes = ftimes[keep]
        frates = frates[keep]
    return den, times, rates, ftimes, frates, bound


def _exact_window(va, vb):
    """The window merge of a bounded-support right operand.

    ``vb`` has bounded support when its last rate is the int 0 (every
    clamp to a finite window has one): outside its support it adds or
    removes the int 0, which leaves ``va``'s values *and* types as they
    are.  Returns ``(den, a, lo, hi, before, rows, ba, bb)``: ``a`` is
    ``va``'s arrays on the common denominator, ``va``'s breakpoints
    ``lo:hi`` lie inside ``vb``'s support, ``before`` is ``va``'s rate
    numerator ahead of it, and ``rows`` holds one
    ``(time, time_is_fraction, rate_a, a_is_fraction, rate_b,
    b_is_fraction)`` per breakpoint of either operand there, as
    :func:`_exact_merge` would (a shared time keeps ``va``'s bit).
    ``None`` sends the operation to the whole-array kernel: ``vb``'s
    support is unbounded, the window holds more than
    :data:`WINDOW_MAX_ROWS` rows, or a rescale overflows."""
    if vb[2][-1] or vb[4][-1]:
        return None
    common = _common((va, vb))
    if common is None:
        return None
    den, ((ta, ra, ba), (tb, rb, bb)) = common
    times_a, times_b = memoryview(ta), memoryview(tb)
    m = len(times_b)
    lo = bisect_left(times_a, times_b[0])
    hi = bisect_right(times_a, times_b[m - 1], lo)
    if hi - lo + m > WINDOW_MAX_ROWS:
        return None
    rates_a, ftimes_a, frates_a = (
        memoryview(ra), memoryview(va[3]), memoryview(va[4])
    )
    rates_b, ftimes_b, frates_b = (
        memoryview(rb), memoryview(vb[3]), memoryview(vb[4])
    )
    rate_a, flag_a = (rates_a[lo - 1], frates_a[lo - 1]) if lo else (0, False)
    before = rate_a
    rate_b, flag_b = 0, False
    rows = []
    i, j = lo, 0
    while j < m:
        t = times_b[j]
        if i < hi and times_a[i] <= t:
            at = times_a[i]
            fat = ftimes_a[i]
            rate_a, flag_a = rates_a[i], frates_a[i]
            i += 1
            if at == t:
                rate_b, flag_b = rates_b[j], frates_b[j]
                j += 1
            rows.append((at, fat, rate_a, flag_a, rate_b, flag_b))
        else:
            rate_b, flag_b = rates_b[j], frates_b[j]
            rows.append((t, ftimes_b[j], rate_a, flag_a, rate_b, flag_b))
            j += 1
    return den, (ta, ra, va[3], va[4]), lo, hi, before, rows, ba, bb


def exact_add(va, vb):
    window = _exact_window(va, vb)
    if window is not None:
        den, a, lo, hi, before, rows, ba, bb = window
        bound = ba + bb
        if bound >= EXACT_LIMIT:
            return None
        return (den, *_splice(a, lo, hi, before, [
            (t, ra + rb, ft, fa or fb) for t, ft, ra, fa, rb, fb in rows
        ]), bound)
    merged = _exact_merge(va, vb)
    if merged is None:
        return None
    den, times, ftimes, ra, fa, rb, fb, ba, bb = merged
    bound = ba + bb
    if bound >= EXACT_LIMIT:
        return None
    return _exact_normalise(den, times, ra + rb, ftimes, fa | fb, bound)


def exact_subtract(va, vb):
    """Pointwise difference: ``("profile", view)``, or
    ``("negative", time, minuend_rate, subtrahend_rate)`` (Python values)
    for the first rate that goes negative — exact values have no dust to
    forgive — or ``None`` on overflow."""
    window = _exact_window(va, vb)
    if window is not None:
        den, a, lo, hi, before, rows, ba, bb = window
        for t, ft, ra, fa, rb, fb in rows:
            if ra < rb:
                return (
                    "negative",
                    exact_scalar(t, den, ft),
                    exact_scalar(ra, den, fa),
                    exact_scalar(rb, den, fb),
                )
        return ("profile", (den, *_splice(a, lo, hi, before, [
            (t, ra - rb, ft, fa or fb) for t, ft, ra, fa, rb, fb in rows
        ]), max(ba, bb)))
    merged = _exact_merge(va, vb)
    if merged is None:
        return None
    den, times, ftimes, ra, fa, rb, fb, ba, bb = merged
    diff = ra - rb
    negative = diff < 0
    if negative.any():
        k = int(_np.argmax(negative))
        return (
            "negative",
            exact_scalar(int(times[k]), den, ftimes[k]),
            exact_scalar(int(ra[k]), den, fa[k]),
            exact_scalar(int(rb[k]), den, fb[k]),
        )
    return ("profile", _exact_normalise(
        den, times, diff, ftimes, fa | fb, max(ba, bb)
    ))


def exact_saturating_sub(va, vb):
    """Pointwise ``max(0, a - b)``: a non-positive difference becomes the
    int 0 (``max`` keeps its first operand on a tie)."""
    merged = _exact_merge(va, vb)
    if merged is None:
        return None
    den, times, ftimes, ra, fa, rb, fb, ba, bb = merged
    diff = ra - rb
    positive = diff > 0
    return _exact_normalise(
        den, times, diff * positive, ftimes, (fa | fb) & positive,
        max(ba, bb),
    )


def exact_cap(va, vb):
    """Pointwise ``min(a, b)``: ``b`` only where strictly smaller, as
    ``min`` keeps its first operand on a tie."""
    merged = _exact_merge(va, vb)
    if merged is None:
        return None
    den, times, ftimes, ra, fa, rb, fb, ba, bb = merged
    lower = rb < ra
    return _exact_normalise(
        den, times, _np.where(lower, rb, ra), ftimes,
        _np.where(lower, fb, fa), max(ba, bb),
    )


def exact_dominates(va, vb):
    """Pointwise ``a >= b`` everywhere, or ``None`` on overflow."""
    window = _exact_window(va, vb)
    if window is not None:
        return all(row[2] >= row[4] for row in window[5])
    merged = _exact_merge(va, vb)
    if merged is None:
        return None
    return bool((merged[3] >= merged[5]).all())


def exact_sum(views):
    """K-way pointwise sum of integer-form views (each time keeps the
    type of the first operand holding it; a rate is a Fraction when any
    summand is), or ``None`` on overflow."""
    common = _common(views)
    if common is None:
        return None
    den, scaled = common
    bound = sum(b for _, _, b in scaled)
    if bound >= EXACT_LIMIT:
        return None
    times, ftimes = scaled[0][0], views[0][3]
    for (tk, _, _), view in zip(scaled[1:], views[1:]):
        times, ftimes = _exact_union(times, ftimes, tk, view[3])
    level = None
    for (tk, rk, _), view in zip(scaled, views):
        rates, flags = _exact_at(tk, rk, view[4], times)
        if level is None:
            level, frates = rates, flags
        else:
            level = level + rates
            frates = frates | flags
    return _exact_normalise(den, times, level, ftimes, frates, bound)


def exact_from_segments(segments):
    """K-way sum of ``(start, end, rate)`` segments with int/Fraction
    coordinates and finite ends, as ``RateProfile.from_segments``' exact
    sweep computes it: the time at a breakpoint is the first event's
    (stable time order), and the running level turns into a Fraction at
    the first Fraction rate it absorbs.  ``None`` on overflow or a
    coordinate of another type."""
    den = 1
    for start, end, rate in segments:
        for value in (start, end, rate):
            if type(value) is not int:
                if type(value) is not Fraction:
                    return None
                if den % value.denominator:
                    den = math.lcm(den, value.denominator)
    times: list = []
    deltas: list = []
    ftimes: list = []
    frates: list = []
    for start, end, rate in segments:
        numerator = _scaled(rate, den)
        is_fraction = type(rate) is Fraction
        times += (_scaled(start, den), _scaled(end, den))
        deltas += (numerator, -numerator)
        ftimes += (type(start) is Fraction, type(end) is Fraction)
        frates += (is_fraction, is_fraction)
    bound = max(max(times), -min(times), sum(deltas[::2]))
    if bound >= EXACT_LIMIT:
        return None
    times_a = _np.array(times, dtype=_np.int64)
    order = _np.argsort(times_a, kind="stable")
    times_a = times_a[order]
    levels = _np.cumsum(_np.array(deltas, dtype=_np.int64)[order])
    fraction_seen = _np.logical_or.accumulate(_np.array(frates)[order])
    first = _np.empty(len(times_a), dtype=bool)
    first[0] = True
    _np.not_equal(times_a[1:], times_a[:-1], out=first[1:])
    last = _np.empty(len(times_a), dtype=bool)
    last[-1] = True
    last[:-1] = first[1:]
    return _exact_normalise(
        den, times_a[first], levels[last],
        _np.array(ftimes)[order][first], fraction_seen[last], bound,
    )


def exact_clamp(view, start, end):
    """The profile restricted to ``(start, end)``: ``end`` may be
    ``math.inf``.  ``None`` for a window coordinate of another type or
    on overflow."""
    den0, times, rates, ftimes, frates, bound = view
    finite = type(end) is not float
    den = den0
    for value in (start, end) if finite else (start,):
        if type(value) is not int:
            if type(value) is not Fraction:
                return None
            if den % value.denominator:
                den = math.lcm(den, value.denominator)
    if not finite and end != math.inf:
        return None
    if den != den0:
        factor = den // den0
        bound *= factor
        if bound >= EXACT_LIMIT:
            return None
        times = times * factor
        rates = rates * factor
    s = _scaled(start, den)
    e = _scaled(end, den) if finite else None
    bound = max(bound, abs(s), abs(e) if finite else 0)
    if bound >= EXACT_LIMIT:
        return None
    bisectable = memoryview(times)
    lo = bisect_right(bisectable, s)
    hi = bisect_left(bisectable, e) if finite else len(times)
    width = hi - lo + 1 + finite
    out_t = _np.empty(width, dtype=_np.int64)
    out_r = _np.empty(width, dtype=_np.int64)
    out_ft = _np.empty(width, dtype=bool)
    out_fr = _np.empty(width, dtype=bool)
    out_t[0] = s
    out_ft[0] = type(start) is Fraction
    if lo:
        out_r[0] = rates[lo - 1]
        out_fr[0] = frates[lo - 1]
    else:
        out_r[0] = 0
        out_fr[0] = False
    inner = slice(1, hi - lo + 1)
    out_t[inner] = times[lo:hi]
    out_r[inner] = rates[lo:hi]
    out_ft[inner] = ftimes[lo:hi]
    out_fr[inner] = frates[lo:hi]
    if finite:
        out_t[-1] = e
        out_r[-1] = 0
        out_ft[-1] = type(end) is Fraction
        out_fr[-1] = False
    return _exact_normalise(den, out_t, out_r, out_ft, out_fr, bound)


def exact_index(view):
    """Query index of an integer-form profile: memoryviews
    ``(times, rates, ftimes, frates)`` of its arrays.  Scalar reads and
    ``bisect`` on them cost a fraction of numpy's per-call overhead and
    share the arrays' memory."""
    _, times, rates, ftimes, frates, _ = view
    return (
        memoryview(times), memoryview(rates),
        memoryview(ftimes), memoryview(frates),
    )


def exact_prefix(view):
    """Prefix integrals of an integer-form profile: ``(cum, first)``.

    ``cum[k]`` is the integral up to breakpoint ``k`` (over ``den**2``),
    which the scalar path computes as a Fraction exactly when
    ``k > first``.  ``None`` when the prefix integrals could overflow
    int64.  Only window integrals read them."""
    _, times, rates, ftimes, frates, bound = view
    if bound >= _INTEGRAL_LIMIT:
        return None
    n = len(times)
    cum = _np.zeros(n, dtype=_np.int64)
    first = n
    if n > 1:
        _np.cumsum(rates[:-1] * _np.diff(times), out=cum[1:])
        # Term j (rate j times the width of segment j) is a Fraction
        # when any of its three coordinates is one.
        touched = frates[:-1] | ftimes[:-1] | ftimes[1:]
        seen = _np.cumsum(touched)
        if seen[-1]:
            first = bisect_left(memoryview(seen), 1)
    return memoryview(cum), first


def exact_rate_at(den, index, t):
    """The rate in effect at int/Fraction ``t``."""
    times, rates, _, frates = index
    i = bisect_right(times, _floor_scaled(t, den)) - 1
    if i < 0:
        return 0
    return exact_scalar(rates[i], den, frates[i])


def _exact_cum_at(den, index, prefix, t):
    """``(value, is_fraction)``: the integral from the first breakpoint
    up to ``t`` (over ``den**2``; an int or a Fraction when ``t`` is off
    the grid), and whether the scalar path computes it as a Fraction."""
    times, rates, ftimes, frates = index
    cum, first = prefix
    if type(t) is int:
        scaled = t * den
        i = bisect_right(times, scaled) - 1
    else:
        i = bisect_right(times, _floor_scaled(t, den)) - 1
        scaled = Fraction(t.numerator * den, t.denominator)
    if i < 0:
        return 0, False
    base = times[i]
    rate = rates[i]
    if rate == 0 or base == scaled:
        return cum[i], i > first
    return (
        cum[i] + rate * (scaled - base),
        i > first or frates[i] or ftimes[i] or type(t) is Fraction,
    )


def exact_integral(den, index, prefix, start, end):
    """Window integral over int/Fraction ``(start, end)``:
    ``cumulative(end) - cumulative(start)`` as the scalar path computes
    it, typed like it."""
    high, high_fraction = _exact_cum_at(den, index, prefix, end)
    low, low_fraction = _exact_cum_at(den, index, prefix, start)
    if high_fraction or low_fraction:
        return Fraction(high - low) / (den * den)
    return (high - low) // (den * den)


def exact_earliest_accumulation(den, index, start, quantity):
    """``RateProfile.earliest_accumulation``'s segment walk, read off the
    integer form: from the segment holding int/Fraction ``start``, each
    segment's coordinates are turned back into their Python values, so
    the arithmetic — and with it every type — is the scalar path's.  A
    walk draws on a segment or two, so it reads only those, never the
    whole profile."""
    times, rates, ftimes, frates = index
    n = len(times)
    lo = bisect_right(times, _floor_scaled(start, den)) - 1
    # The scalar walk's ``max(start, segment start)``, settled by the
    # bisection: ``start`` itself in its own segment, the segment's
    # start in every later one.
    if lo < 0:
        lo = 0
        seg_end = exact_scalar(times[0], den, ftimes[0])
    else:
        seg_end = start
    remaining = quantity
    for i in range(lo, n):
        effective_start = seg_end
        seg_end = (
            exact_scalar(times[i + 1], den, ftimes[i + 1])
            if i + 1 < n else math.inf
        )
        if rates[i] == 0:
            continue
        rate = exact_scalar(rates[i], den, frates[i])
        capacity = rate * (seg_end - effective_start)
        if capacity >= remaining:
            # ``exact_div``: an int only for an integral int/int quotient.
            if type(remaining) is int and type(rate) is int:
                step = Fraction(remaining, rate)
                if step.denominator == 1:
                    step = step.numerator
            else:
                step = remaining / rate
            return effective_start + step
        remaining -= capacity
    return None
