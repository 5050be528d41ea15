"""Vectorized (numpy) float64 kernels for inexact rate profiles.

:class:`~repro.resources.profile.RateProfile` runs inexact algebra (some
float coordinate) on float64 arrays, and this module holds every kernel.
It is the only place in the tree allowed to import numpy (enforced by
the ``layering`` lint rule's third-party pin), and the only one the
float-compare lint rule exempts (``INEXACT_KERNELS``), so the exactness
boundary stays auditable.  Exact profiles (every coordinate
``int``/``Fraction``) never reach it: they hold Python lists and run on
the scalar code in ``profile.py``.

``add``, ``subtract`` and ``dominates`` against a right operand with
bounded support (last rate ``+0.0``, as every admission claim has) are
window-local: a short Python merge over the breakpoints inside that
support, spliced between the left operand's untouched prefix and suffix
and renormalised only at the seams.  The whole-array merge still answers
windows wider than :data:`WINDOW_MAX_ROWS` rows, and the splice answers
exactly as it would, every bit included.

Float bit-identity contract: every kernel reproduces the scalar float
path's IEEE-754 operation order exactly —

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
(``-0.0`` against ``0.0`` included), as the scalar sweep does.  An
error names the rate ahead of an operand's first breakpoint as the
scalar sweep does, the int ``0``.

``tests/test_profile_differential.py`` fuzzes this agreement against
the ``_reference_*`` oracles and the scalar path, and the splice against
the whole-array kernels bit for bit.

Coordinates are converted to float64, so the kernels only accept
profiles whose coordinates are floats or integers small enough to be
exactly representable (``|v| <= 2**53``); anything else — Fractions
above all — stays on the scalar path.  Integer coordinates come back
as floats (``2 -> 2.0``): numerically equal, but callers that branch
on :func:`~repro.resources.profile.is_exact` must treat vec-built
profiles as inexact, which they are by construction.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from typing import List, Sequence, Tuple

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
    """Sorted distinct times of two sorted, duplicate-free time arrays,
    merged by binary search rather than a sort.  A
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
#: the left operand's untouched prefix and suffix.  Past it numpy's
#: whole-array merge answers; the crossover lies near 100 rows, and
#: admission claims hold 2-10 (measured in EXPERIMENTS.md E24).
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
    would (a shared time keeps ``va``'s value), except that ``va``'s
    rate ahead of its first breakpoint is the scalar sweep's int ``0``:
    an error names it as the sweep does, and every sum or difference
    with a float rate is the same float.  ``None`` sends the
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
    rate_a = rates_a[lo - 1] if lo else 0
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
    """The left operand's ``arrays`` (times, rates) before ``lo``, the
    window ``rows`` (``(time, rate)`` pairs) and the arrays from ``hi``
    on, normalised as the whole sweep would be.  Only the window needs
    it, against ``before`` (the rate ahead of it): the left operand is
    normalised, and the window's last row (the right operand's zero end)
    carries the left operand's own rate there, which differs from the
    suffix's first."""
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
    caller raises with the same message the scalar path uses, which
    names the minuend's rate ahead of its first breakpoint as the int
    ``0``.  NaN rates
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
    with _np.errstate(invalid="ignore"):  # inf - inf: handled below
        diff = ra - rb
    negative = diff < 0.0
    if negative.any():
        bad = negative & (-diff > tolerance)
        if bad.any():
            k = int(_np.argmax(bad))
            t = times[k].item()
            ta = va[0]
            return (
                "negative",
                t,
                ra[k].item() if len(ta) and t >= ta[0] else 0,
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
    with _np.errstate(invalid="ignore"):  # inf - inf: handled below
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
