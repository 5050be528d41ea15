"""Differential fuzzing of the profile fast paths against the oracles.

The vectorized (numpy float64) inexact path and the scalar fast path
must both be *indistinguishable* from the retained ``_reference_*``
implementations — same breakpoints, same values, same exceptions — over
seeded random profiles that deliberately mix numeric types (int, float,
Fraction) and force the historical trouble spots: coincident
breakpoints, zero-width segments, window edges landing exactly on
breakpoints under a different numeric type.

The ``exact`` family drives the window splice of exact profiles (parallel
Python lists) with ints, small-denominator Fractions, integral Fractions
(``Fraction(k, 1)``) and huge magnitudes, and holds it to the sweep
(``RateProfile._merged_rates``, the splice switched off).  There the
contract is stricter: every coordinate must match in value *and*
``type()``, because ``Fraction(2, 1)`` and ``2`` serialize differently
and the pinned gold digests see the difference.

The float window family draws wide float64 left operands against
claim-shaped right ones and holds the window splice to the whole-array
float kernels bit for bit, signed zeros included, and both to the
scalar path, with the same error type and text.

Two real divergences this fuzzer surfaced are pinned as minimized
regression tests below:

* ``integral`` tie-breaking: the scalar fast path picked the *window*
  coordinate when a segment boundary coincided with a window edge under
  a different type (``1`` vs ``1.0``), while the reference's
  ``Interval.intersection`` (``max``/``min``) picks the *segment*
  coordinate — one ulp of drift under mixed Fraction/float arithmetic.
* ``_reference_min_rate`` coverage dust: summing mixed float/Fraction
  segment durations accrued rounding error and declared a fully-covered
  window uncovered, returning a spurious 0.
"""

from __future__ import annotations

import bisect
import contextlib
import math
import pickle
import random
from fractions import Fraction

import pytest

from repro.computation import ComplexRequirement, Demands
from repro.decision import AdmissionController
from repro.errors import InvalidTermError, UndefinedOperationError
from repro.faults import PartitionPlan, report_fingerprint, run_mesh
from repro.intervals import Interval
from repro.resources import RateProfile, ResourceSet, cpu, term
from repro.resources import _vectorized as _vec
from repro.resources import profile as P
from repro.serialization import time_to_wire

TRIALS = 2500  # per generator family; seeds make failures reproducible


# ----------------------------------------------------------------------
# Seeded generators
# ----------------------------------------------------------------------

def _mixed_coord(rng):
    """A coordinate drawn across numeric types, biased toward values
    that collide across representations (``1`` == ``1.0`` == ``F(1)``)."""
    c = rng.randint(0, 5)
    if c == 0:
        return rng.randint(0, 8)
    if c == 1:
        return Fraction(rng.randint(0, 24), rng.randint(1, 6))
    if c == 2:
        return round(rng.random() * 8, 2)
    if c == 3:
        return rng.random() * 8
    if c == 4:
        return float(rng.randint(0, 8))
    return rng.choice([0, 0.0, 1, 1.0, Fraction(1), Fraction(1, 3), 1 / 3])


def _float_coord(rng):
    """A float64-safe coordinate (keeps the vector kernels engaged)."""
    c = rng.randint(0, 2)
    if c == 0:
        return float(rng.randint(0, 8))
    if c == 1:
        return round(rng.random() * 8, 2)
    return rng.random() * 8


def _profile(rng, coord):
    n = rng.randint(0, 6)
    pts = [(coord(rng), abs(coord(rng))) for _ in range(n)]
    if pts and rng.random() < 0.4:
        # Force a coincident breakpoint: same time, different rate —
        # normalisation must resolve it last-wins on both paths.
        t = pts[rng.randrange(len(pts))][0]
        pts.append((t, abs(coord(rng))))
    return RateProfile(pts)


def _window(rng, coord):
    lo, hi = coord(rng), coord(rng)
    if hi < lo:
        lo, hi = hi, lo
    return Interval(lo, hi)


GENERATORS = {
    "mixed-types": _mixed_coord,
    "float64": _float_coord,
}


# ----------------------------------------------------------------------
# Oracles not retained in profile.py (derived from _reference_rate_at)
# ----------------------------------------------------------------------

def _merged_times(a, b):
    return sorted(
        {t for t, _ in a.breakpoints} | {t for t, _ in b.breakpoints}
    )


def _oracle_cap(a, b):
    return RateProfile(
        (t, min(P._reference_rate_at(a, t), P._reference_rate_at(b, t)))
        for t in _merged_times(a, b)
    )


def _oracle_saturating_sub(a, b):
    return RateProfile(
        (t, max(0, P._reference_rate_at(a, t) - P._reference_rate_at(b, t)))
        for t in _merged_times(a, b)
    )


def _oracle_dominates(a, b):
    return all(
        P._reference_rate_at(a, t) >= P._reference_rate_at(b, t)
        for t in _merged_times(a, b)
    )


def _subtract_outcome(fn):
    try:
        return ("ok", tuple(fn()._points))
    except (UndefinedOperationError, InvalidTermError) as exc:
        return ("raise", type(exc).__name__)


# ----------------------------------------------------------------------
# The differential sweep
# ----------------------------------------------------------------------

@pytest.mark.parametrize("family", sorted(GENERATORS))
def test_binary_ops_match_reference(family):
    coord = GENERATORS[family]
    rng = random.Random(20260808)
    for _ in range(TRIALS):
        a, b = _profile(rng, coord), _profile(rng, coord)
        assert (a + b) == P._reference_add(a, b), (a, b)
        assert a.cap(b) == _oracle_cap(a, b), (a, b)
        assert a.saturating_sub(b) == _oracle_saturating_sub(a, b), (a, b)
        assert a.dominates(b) == _oracle_dominates(a, b), (a, b)
        fast = _subtract_outcome(lambda: a.subtract(b))
        ref = _subtract_outcome(lambda: P._reference_subtract(a, b))
        # Exception *parity* is part of the contract: the vector path
        # must raise exactly when the scalar reference raises.
        assert fast[0] == ref[0], (a, b, fast, ref)
        if fast[0] == "ok":
            assert fast[1] == ref[1], (a, b)


@pytest.mark.parametrize("family", sorted(GENERATORS))
def test_queries_match_reference(family):
    coord = GENERATORS[family]
    rng = random.Random(991)
    for _ in range(TRIALS):
        a = _profile(rng, coord)
        w = _window(rng, coord)
        if not w.is_empty:
            assert a.integral(w) == P._reference_integral(a, w), (a, w)
            assert a.min_rate(w) == P._reference_min_rate(a, w), (a, w)
        ts = [coord(rng) for _ in range(4)]
        assert a.rates_at(ts) == [P._reference_rate_at(a, t) for t in ts]
        quantity, start = abs(coord(rng)), coord(rng)
        assert a.earliest_accumulation(start, quantity) == (
            P._reference_earliest_accumulation(a, start, quantity)
        ), (a, start, quantity)


@pytest.mark.parametrize("family", sorted(GENERATORS))
def test_aggregation_matches_reference(family):
    coord = GENERATORS[family]
    rng = random.Random(4242)
    for _ in range(TRIALS // 5):
        profiles = [_profile(rng, coord) for _ in range(rng.randint(2, 5))]
        expected = RateProfile.zero()
        for p in profiles:
            expected = P._reference_add(expected, p)
        assert RateProfile.sum(profiles) == expected, profiles
        segments = []
        for _ in range(rng.randint(1, 5)):
            w = _window(rng, coord)
            if not w.is_empty:
                segments.append((w, abs(coord(rng))))
        assert RateProfile.from_segments(segments) == (
            P._reference_from_segments(segments)
        ), segments


def test_vector_path_actually_engages():
    """All-float operands must take the vector path (result is lazily
    materialized, ``_pts is None``) — guards against a silent fallback
    that would make the differential suite vacuous."""
    if not _vec.HAVE_NUMPY:
        pytest.skip("numpy unavailable; scalar fallback is the only path")
    a = RateProfile([(0.0, 1.5), (2.0, 3.5)])
    b = RateProfile([(1.0, 0.5)])
    assert (a + b)._pts is None
    assert a.cap(b)._pts is None
    assert a.subtract(b)._pts is None
    # Exact operands never touch the float kernels, and an exact pair
    # whose right operand has unbounded support takes the sweep.
    c = RateProfile([(0, 1), (2, Fraction(7, 2))])
    d = RateProfile([(1, 1)])
    assert (c + d)._pts is not None
    assert all(P.is_exact(v) for pt in (c + d)._points for v in pt)


def test_vector_built_profiles_pickle_and_compare():
    a = RateProfile([(0.0, 1.5), (2.0, 3.5)])
    b = RateProfile([(1.0, 0.5)])
    s = a + b
    clone = pickle.loads(pickle.dumps(s))
    assert clone == s
    assert clone._points == s._points
    assert hash(clone) == hash(s)


# ----------------------------------------------------------------------
# Minimized regressions for divergences the fuzzer surfaced
# ----------------------------------------------------------------------

def test_integral_tie_break_at_mixed_type_window_edge():
    """Window edge ``1.0`` coinciding with breakpoint ``1`` (int): the
    fast path must pick the segment coordinate on the tie, like the
    reference's ``max``, or mixed Fraction/float rounding drifts a ulp."""
    a = RateProfile([(1, 1.9522662677165377), (3.3181644759687963, 7)])
    w = Interval(1.0, Fraction(4, 3))
    assert a.integral(w) == P._reference_integral(a, w)


def test_reference_min_rate_coverage_has_no_float_dust():
    """Fully-covered window whose mixed-type segment durations do not sum
    back to the window duration in float64: coverage must be tracked by
    frontier comparison, not accumulation, so the answer is the true
    minimum rather than the no-coverage fallback 0."""
    a = RateProfile([(0, 6.86), (2, 5.449389469605602), (2.65, 1.35)])
    w = Interval(Fraction(2), Fraction(8, 3))
    assert P._reference_min_rate(a, w) == 1.35
    assert a.min_rate(w) == 1.35


def test_reference_min_rate_still_reports_real_gaps():
    """The frontier rewrite must not paper over genuine gaps: an interior
    zero-rate segment and a pre-support window still report 0."""
    holey = RateProfile([(0, 1), (1, 0), (2, 3)])
    assert P._reference_min_rate(holey, Interval(0, 3)) == 0
    assert holey.min_rate(Interval(0, 3)) == 0
    late = RateProfile([(5, 2)])
    assert P._reference_min_rate(late, Interval(0, 6)) == 0
    assert late.min_rate(Interval(0, 6)) == 0


def test_subtract_negative_parity_at_coincident_breakpoints():
    """A last-wins coincident breakpoint that flips the sign of the
    difference: both paths must agree the result is negative (raise)."""
    a = RateProfile([(0.0, 2.0), (1.0, 1.0)])
    b = RateProfile([(1.0, 3.0), (1.0, 1.5)])  # last-wins: rate 1.5 at 1.0
    with pytest.raises(UndefinedOperationError):
        a.subtract(b)
    with pytest.raises(UndefinedOperationError):
        P._reference_subtract(a, b)


def test_subtract_epsilon_dust_is_snapped_only_when_inexact():
    base = RateProfile([(0.0, 1.0)])
    dusty = RateProfile([(0.0, 1.0 + 1e-12)])
    assert base.subtract(dusty) == P._reference_subtract(base, dusty)
    exact_over = RateProfile([(0, Fraction(1) + Fraction(1, 10 ** 12))])
    with pytest.raises(UndefinedOperationError):
        RateProfile([(0, 1)]).subtract(exact_over)


# ----------------------------------------------------------------------
# End-to-end: admission decisions are path-independent
# ----------------------------------------------------------------------

def _float_arrivals(count, horizon, seed=11):
    rng = random.Random(seed)
    out = []
    for index in range(count):
        start = float(rng.randrange(0, horizon - 12))
        out.append(
            ComplexRequirement(
                [Demands({cpu("l1"): float(rng.randrange(1, 4))})],
                Interval(start, start + float(rng.randrange(6, 14))),
                label=f"job{index}",
            )
        )
    return out


def _decide(arrivals, horizon):
    available = ResourceSet.of(term(1.0, cpu("l1"), 0.0, float(horizon)))
    controller = AdmissionController(available)
    return [controller.admit(req).admitted for req in arrivals]


def test_admission_decisions_identical_with_and_without_numpy(monkeypatch):
    """The whole point of the bit-identity contract: a float workload
    decided on the vector kernels and re-decided with numpy disabled
    (pure scalar path) must produce the same accept/reject sequence."""
    if not _vec.HAVE_NUMPY:
        pytest.skip("numpy unavailable; both runs would be scalar")
    arrivals = _float_arrivals(80, 200)
    vectored = _decide(arrivals, 200)
    monkeypatch.setattr(_vec, "HAVE_NUMPY", False)
    scalar = _decide(arrivals, 200)
    assert vectored == scalar
    assert any(vectored) and not all(vectored)  # workload actually bites


def _exact_arrivals(count, horizon, seed=11):
    rng = random.Random(seed)
    out = []
    for index in range(count):
        start = rng.randrange(0, horizon - 12)
        amount = rng.choice([1, 2, 3, Fraction(5, 2), Fraction(4, 1)])
        out.append(
            ComplexRequirement(
                [Demands({cpu("l1"): amount})],
                Interval(start, start + rng.randrange(6, 14)),
                label=f"job{index}",
            )
        )
    return out


def _exact_run(arrivals, horizon, capacity=1):
    """Decisions plus a typed digest of the final slack and commitments
    (``time_to_wire`` writes ``Fraction(2, 1)`` as ``"2/1"``, ``2`` as
    ``2``)."""
    controller = AdmissionController(
        ResourceSet.of(term(capacity, cpu("l1"), 0, horizon))
    )
    decisions = [controller.admit(req).admitted for req in arrivals]
    digest = [
        [(time_to_wire(t), time_to_wire(r)) for t, r in profile.breakpoints]
        for resources in (controller.expiring_slack, controller.committed)
        for profile in resources.profiles().values()
    ]
    return decisions, digest


def test_exact_admission_digests_identical_with_and_without_splice(monkeypatch):
    """The exact workload committed through the window splice and
    re-decided with every commit on the sweep must agree on every
    decision and on the typed wire form of the slack and the committed
    path."""
    splices = []
    splice = RateProfile._splice

    def counted(self, *args):
        splices.append(1)
        return splice(self, *args)

    monkeypatch.setattr(RateProfile, "_splice", counted)
    arrivals = _exact_arrivals(80, 200)
    splice_decisions, splice_digest = _exact_run(arrivals, 200)
    assert splices  # the commits really took the splice
    with _sweep_only():
        sweep_decisions, sweep_digest = _exact_run(arrivals, 200)
    assert splice_decisions == sweep_decisions
    assert splice_digest == sweep_digest
    assert any(splice_decisions) and not all(splice_decisions)
    assert any("/" in str(c) for row in splice_digest for pt in row for c in pt)


# ----------------------------------------------------------------------
# The exact family: the list splice, checked for value *and* type
# ----------------------------------------------------------------------

#: A huge magnitude, and below a deep denominator: exact arithmetic has
#: no range to leave.
_HUGE = 2 ** 61


def _exact_coord(rng):
    c = rng.randint(0, 6)
    if c == 0:
        return rng.randint(0, 12)
    if c == 1:
        return Fraction(rng.randint(0, 36), rng.choice([2, 3, 4, 6]))
    if c == 2:
        return Fraction(rng.randint(0, 12), 1)  # integral, but a Fraction
    if c == 3:
        return rng.choice([0, 1, Fraction(0), Fraction(1), Fraction(1, 3), 2])
    if c == 4:
        return Fraction(rng.randint(0, 6)) + Fraction(rng.randint(0, 4), 5)
    if c == 5 and rng.random() < 0.15:
        return rng.choice([_HUGE + rng.randint(0, 3), Fraction(1, 2 ** 40 + 1)])
    return rng.randint(0, 4)


def _exact_points(rng):
    n = rng.choice([rng.randint(0, 6), rng.randint(8, 24)])
    pts = [(_exact_coord(rng), _exact_coord(rng)) for _ in range(n)]
    if pts and rng.random() < 0.3:
        pts.append((pts[rng.randrange(len(pts))][0], _exact_coord(rng)))
    return pts


def _as_drawn(value, rng):
    """An integral Fraction as an int or kept a Fraction, at random."""
    if value.denominator == 1 and rng.random() < 0.6:
        return int(value)
    return value


def _other_type(value):
    """The same number under the other exact type (``2`` and
    ``Fraction(2)`` swap; a non-integral Fraction has no int twin)."""
    if type(value) is int:
        return Fraction(value)
    return int(value) if value.denominator == 1 else value


def _wide_operands(rng):
    """A wide exact left operand (16-300 breakpoints) and a
    bounded-support right one, plus a ``start`` and ``quantity``.

    The right operand is usually the left one clamped to a few of its
    segments, the shape of an admission claim; it may also start before
    the left one's first breakpoint, end past its horizon, have its edges
    on the left one's breakpoints under the other type, carry a new
    denominator, exceed the left one inside the window (subtraction goes
    negative there), or end in a ``Fraction(0)`` rate, which is not
    bounded support.  The quantity is what the left operand supplies over
    55-65 segments from ``start``, so accumulation walks that far."""
    t = Fraction(rng.randint(-3, 3))
    pa = []
    for _ in range(rng.randint(16, rng.choice([80, 300]))):
        rate = rng.choice([
            0, 1, 2, 3, 5, Fraction(0), Fraction(3), Fraction(7, 2),
            Fraction(5, 3), Fraction(1, 4), Fraction(9, 4),
        ])
        pa.append((_as_drawn(t, rng), rate))
        t += rng.choice([1, 1, 2, Fraction(1, 2), Fraction(2, 3), Fraction(3, 4)])
    if rng.random() < 0.7:
        pa.append((_as_drawn(t, rng), 0))
    times = [time for time, _ in pa]
    i = rng.randrange(len(times) - 1)
    lo, hi = times[i], times[min(len(times) - 1, i + rng.randint(1, 8))]
    shape = rng.randrange(6)
    if shape == 0:
        lo, hi = _other_type(lo), _other_type(hi)
    elif shape == 1:
        lo = times[0] - rng.choice([1, Fraction(1, 5)])
    elif shape == 2:
        hi = times[-1] + rng.choice([2, Fraction(3, 7)])
    elif shape == 3:
        lo, hi = lo + Fraction(1, 5), hi + Fraction(2, 7)
    a = RateProfile(pa)
    pb = [(lo, P._reference_rate_at(a, lo))]
    pb += [(time, rate) for time, rate in a.breakpoints if lo < time < hi]
    pb.append((hi, 0))
    variant = rng.randrange(6)
    if variant == 0:
        pb[-1] = (hi, Fraction(0))
    elif variant == 1:
        k = rng.randrange(len(pb) - 1)
        pb[k] = (pb[k][0], pb[k][1] + rng.choice([1, Fraction(1, 3)]))
    elif variant == 2:  # a partial claim, keeping its int-0 end
        pb[:-1] = [(time, rate * Fraction(1, 2)) for time, rate in pb[:-1]]
    k = rng.randrange(max(1, len(times) - 60))
    start = rng.choice([times[k], _other_type(times[k]), times[k] + Fraction(1, 7)])
    end = times[min(len(times) - 1, k + rng.randint(55, 65))]
    quantity = P._reference_integral(a, Interval(start, max(start, end)))
    quantity += rng.choice([0, 1, Fraction(1, 3)])
    return pa, pb, start, quantity


def _typed(value):
    """A comparison key that tells ``2`` from ``Fraction(2)``."""
    if isinstance(value, RateProfile):
        return tuple(
            (t, type(t), r, type(r)) for t, r in value._points
        )
    return value, type(value)


def _outcome(fn):
    """``("ok", value, typed)`` or ``("raise", exception name, message)``."""
    try:
        value = fn()
    except (UndefinedOperationError, InvalidTermError) as exc:
        return ("raise", type(exc).__name__, str(exc))
    plain = value._points if isinstance(value, RateProfile) else value
    return ("ok", plain, _typed(value))


@contextlib.contextmanager
def _numpy_off():
    saved = _vec.HAVE_NUMPY
    _vec.HAVE_NUMPY = False
    try:
        yield
    finally:
        _vec.HAVE_NUMPY = saved


@contextlib.contextmanager
def _sweep_only():
    """No exact pair takes the window splice: the sweep answers every
    exact binary operation."""
    saved = RateProfile._window
    RateProfile._window = lambda self, other: None
    try:
        yield
    finally:
        RateProfile._window = saved


@contextlib.contextmanager
def _whole_array_kernels():
    """No window is narrow enough: every float binary operation merges
    the whole arrays."""
    saved = _vec.WINDOW_MAX_ROWS
    _vec.WINDOW_MAX_ROWS = 0
    try:
        yield
    finally:
        _vec.WINDOW_MAX_ROWS = saved


def _exact_cases(rng, bounded=False):
    """One trial: ``(name, fast, reference, type_faithful)`` where each
    side is a thunk building fresh profiles from raw points.  Half the
    small right operands get an int-0 end (claim-shaped), all of them
    when ``bounded`` is set, and about one
    trial in seven draws wide operands (:func:`_wide_operands`) for the
    binary operations and the accumulation walks.
    ``type_faithful`` marks oracles whose result types match the fast
    path; the repeated-addition ``from_segments``/``sum`` folds agree in
    value only (the fast sweeps carry a Fraction forward, the folds
    renormalise it away), and so does the recomputing ``saturating_sub``
    oracle against a zero subtrahend (the fast path hands back the
    minuend itself)."""
    pa, pb = _exact_points(rng), _exact_points(rng)
    many = [_exact_points(rng) for _ in range(rng.randint(2, 4))]
    lo, hi = sorted([_exact_coord(rng), _exact_coord(rng)])
    window = Interval(lo, hi)
    start, quantity, t = _exact_coord(rng), _exact_coord(rng), _exact_coord(rng)
    segments = []
    for _ in range(rng.randint(1, 12)):
        s, e = sorted([_exact_coord(rng), _exact_coord(rng)])
        if s < e:
            segments.append((Interval(s, e), _exact_coord(rng)))
    if pb and (bounded or rng.random() < 0.5):
        # Claim-shaped: bounded support, the right operand ends in the int 0.
        end = max(time for time, _ in pb) + rng.choice([1, Fraction(1, 2)])
        pb.append((end, 0))
    if rng.random() < 0.15:
        pa, pb, start, quantity = _wide_operands(rng)
    A = lambda: RateProfile(pa)  # noqa: E731 - fresh operands per call
    B = lambda: RateProfile(pb)  # noqa: E731

    def reference_sum():
        expected = RateProfile.zero()
        for points in many:
            expected = P._reference_add(expected, RateProfile(points))
        return expected

    cases = [
        ("add", lambda: A() + B(), lambda: P._reference_add(A(), B()), True),
        ("subtract", lambda: A().subtract(B()),
         lambda: P._reference_subtract(A(), B()), True),
        ("cap", lambda: A().cap(B()), lambda: _oracle_cap(A(), B()), True),
        ("saturating_sub", lambda: A().saturating_sub(B()),
         lambda: _oracle_saturating_sub(A(), B()), not B().is_zero),
        ("dominates", lambda: A().dominates(B()),
         lambda: _oracle_dominates(A(), B()), True),
        ("rate_at", lambda: A().rate_at(t),
         lambda: P._reference_rate_at(A(), t), True),
        ("earliest_accumulation",
         lambda: A().earliest_accumulation(start, quantity),
         lambda: P._reference_earliest_accumulation(A(), start, quantity),
         True),
        ("sum", lambda: RateProfile.sum([RateProfile(m) for m in many]),
         reference_sum, False),
        ("from_segments", lambda: RateProfile.from_segments(segments),
         lambda: P._reference_from_segments(segments), False),
        # Chains keep splice results (list form) flowing into splices
        # and queries.
        ("subtract-then-add", lambda: A().subtract(B()) + B(),
         lambda: P._reference_add(P._reference_subtract(A(), B()), B()),
         True),
        ("add-then-accumulate",
         lambda: (A() + B()).earliest_accumulation(start, quantity),
         lambda: P._reference_earliest_accumulation(
             P._reference_add(A(), B()), start, quantity), True),
        ("sum-then-rate_at",
         lambda: RateProfile.sum([RateProfile(m) for m in many]).rate_at(t),
         lambda: P._reference_rate_at(reference_sum(), t), False),
    ]
    if not window.is_empty:
        cases += [
            ("integral", lambda: A().integral(window),
             lambda: P._reference_integral(A(), window), True),
            ("clamp-then-integral",
             lambda: (A() + B()).clamp(window).integral(Interval(lo, hi + 1)),
             lambda: P._reference_integral(
                 P._reference_add(A(), B()).clamp(window),
                 Interval(lo, hi + 1)), True),
        ]
    return cases


@pytest.mark.parametrize("operands", ["forced", "size-gated"])
def test_exact_family_matches_reference_in_value_and_type(operands, monkeypatch):
    """Every exact operation must equal the sweep's answer (the window
    splice switched off) in value, type and error text, and the oracle's
    value, carrying its types where it is type-faithful and raising
    exactly when it raises.

    ``forced`` gives every small right operand an int-0 end, so each
    binary operation on them has bounded support and the splice takes
    it; ``size-gated`` keeps the generator's mix of small and wide
    (16-300 breakpoint) operands, half the small right operands
    unbounded, so the trials straddle both sizes and both paths.  (The
    ids name the forced and size-gated runs of the integer kernels these
    mixes replaced.)  The splice must answer most binary operations
    under ``forced``, and both it and the sweep many under
    ``size-gated``, or the comparison is vacuous."""
    windows = []
    window = RateProfile._window

    def counted(self, other):
        rows = window(self, other)
        windows.append(rows is not None)
        return rows

    monkeypatch.setattr(RateProfile, "_window", counted)
    rng = random.Random(20261017)
    for _ in range(TRIALS // 5):
        cases = _exact_cases(rng, bounded=operands == "forced")
        for name, fast, reference, type_faithful in cases:
            got = _outcome(fast)
            with _sweep_only():
                sweep = _outcome(fast)
            assert got == sweep, (name, got, sweep)
            expected = _outcome(reference)
            assert got[:2] == expected[:2], (name, got, expected)
            if got[0] == "ok" and type_faithful:
                assert got == expected, (name, got, expected)
    spliced = sum(windows)
    if operands == "forced":
        assert 5 * spliced > 4 * len(windows), (spliced, len(windows))
    else:
        assert min(spliced, len(windows) - spliced) > TRIALS // 5, spliced


def test_exact_integral_carries_the_oracles_type():
    """A Fraction earlier in the profile leaves an integral over int
    segments an int, as the oracle's segment sum has it."""
    a = RateProfile([(Fraction(1, 2), 1), (1, 0), (2, 3), (4, 0)])
    window = Interval(2, 4)
    assert _typed(a.integral(window)) == (6, int)
    assert _typed(P._reference_integral(a, window)) == (6, int)


def test_exact_splice_engages_and_falls_back(monkeypatch):
    """A commit into a wide exact slack edits only the claim's window:
    the slack ``-`` splices once (the commit writes the slack only), and
    nothing sweeps; ``+`` of a narrow claim onto the wide slack splices
    too.  A right operand ending in ``Fraction(0)`` (not the int 0)
    or holding ``bool`` rates, and a ``bool``-rated left operand, take
    the sweep, whose types the splice could not keep.  List-form
    results pickle, compare and hash like their tuples."""
    controller = AdmissionController(
        ResourceSet.of(term(60, cpu("l1"), 0, 400))
    )
    arrivals = _exact_arrivals(241, 400)
    for requirement in arrivals[:-1]:
        controller.admit(requirement)
    slack = controller.expiring_slack.profile(cpu("l1"))
    assert slack._pts is None and len(slack._times) >= 200
    calls = {"_merged_rates": 0, "_splice": 0}
    for name in calls:
        def counted(*args, _method=getattr(RateProfile, name), _name=name):
            calls[_name] += 1
            return _method(*args)
        monkeypatch.setattr(RateProfile, name, counted)
    assert controller.admit(arrivals[-1]).admitted
    assert calls == {"_merged_rates": 0, "_splice": 1}
    label = controller.admitted_labels[-1]
    claim = controller.schedule_of(label).consumption().profile(cpu("l1"))
    widened = controller.expiring_slack.profile(cpu("l1")) + claim
    assert calls == {"_merged_rates": 0, "_splice": 2}
    monkeypatch.undo()
    assert widened == slack
    assert controller.verify_slack()

    wide = RateProfile([(k, 1 + k % 3) for k in range(40)] + [(40, 0)])
    claim = RateProfile([(Fraction(7, 2), 1), (5, 0)])
    for left, right in (
        (wide, RateProfile([(Fraction(7, 2), 1), (5, Fraction(0))])),
        (wide, RateProfile([(3, True), (5, False), (6, 0)])),
        (RateProfile([(0, True), (10, 0)]), claim),
    ):
        assert left._window(right) is None
        assert _typed(left + right) == _typed(P._reference_add(left, right))
    result = wide + claim
    assert result._pts is None  # list form, no tuples
    clone = pickle.loads(pickle.dumps(result))
    assert result._pts is None  # pickling left it in list form
    assert clone == result and hash(clone) == hash(result)
    assert _typed(clone) == _typed(result)
    assert result == RateProfile(result.breakpoints)


#: Times that collide across types (``3 == Fraction(3)``) and rates
#: holding the int 0, ``Fraction(0)`` and integral Fractions.
_SUM_RATES = (0, 0, 1, 2, 3, Fraction(0), Fraction(1), Fraction(2), Fraction(3, 2))


def _sum_time(rng, t):
    return Fraction(t) if rng.random() < 0.35 else t


def _sum_family(rng, taking_turns):
    """2-12 exact profiles.  ``taking_turns`` draws claims with disjoint
    positive supports in shuffled order (each ends in the int 0), the
    shape of an admission controller's live claims on one resource;
    otherwise the profiles overlap freely."""
    if not taking_turns:
        family = []
        for _ in range(rng.randint(2, 12)):
            times = sorted(rng.sample(range(14), rng.randint(1, 6)))
            points = [(_sum_time(rng, t), rng.choice(_SUM_RATES)) for t in times]
            if rng.random() < 0.5:
                points.append((_sum_time(rng, times[-1] + 1), 0))
            family.append(RateProfile(points))
        return family
    t, family = 0, []
    for _ in range(rng.randint(2, 12)):
        t += rng.choice([0, 0, 1, 2])
        points = []
        for _ in range(rng.randint(1, 3)):
            points.append((_sum_time(rng, t), rng.choice(_SUM_RATES[2:])))
            t += rng.choice([1, 1, 2])
        points.append((_sum_time(rng, t), 0))
        family.append(RateProfile(points))
    rng.shuffle(family)
    return family


@pytest.mark.parametrize("taking_turns", [False, True], ids=["overlapping", "taking-turns"])
def test_heap_sum_matches_the_sweep_and_the_fold(taking_turns):
    """``RateProfile.sum``'s heap merge gives the retained sweep's
    answer in value and type, and the pairwise ``+`` fold's in value.
    Where the supports are disjoint (claims taking turns, what the
    committed view sums) it gives the fold's types too; where they
    overlap the fold may keep a rate object its normalisation carried
    forward (``3`` where the sum reads ``Fraction(3)``), so the sweep
    is the type oracle there."""
    rng = random.Random(20261019)
    fold_types = 0
    for _ in range(TRIALS):
        family = _sum_family(rng, taking_turns)
        got = RateProfile.sum(family)
        assert _typed(got) == _typed(P._reference_sum(family)), family
        fold = RateProfile.zero()
        for profile in family:
            fold = fold + profile
        assert got == fold, family
        if _typed(got) == _typed(fold):
            fold_types += 1
        else:
            assert not taking_turns, family
    if not taking_turns:
        assert fold_types < TRIALS  # the type-oracle split is real


def test_scalar_float_heap_sum_is_the_fold_bit_for_bit():
    """Without numpy a float ``sum`` takes the heap merge: claims taking
    turns sum to the ``+`` fold's bits, ``-0.0`` included, and
    overlapping profiles whose rates round differently in another
    association order sum to the retained sweep's bits."""
    rng = random.Random(7)
    inexact = (0.1, 0.2, 0.3, 0.7, 1.0, 3.0, 1e16)
    with _numpy_off():
        for _ in range(TRIALS // 5):
            family = [
                RateProfile([(float(t), r) for t, r in profile.breakpoints])
                for profile in _sum_family(rng, True)
            ]
            family.append(RateProfile([(-1.0, 0.5), (-0.0, 0.0)]))
            fold = RateProfile.zero()
            for profile in family:
                fold = fold + profile
            assert _bits(RateProfile.sum(family)) == _bits(fold), family
            overlapping = [
                RateProfile([
                    (float(t), rng.choice(inexact) if r else r)
                    for t, r in profile.breakpoints
                ])
                for profile in _sum_family(rng, False)
            ]
            assert _bits(RateProfile.sum(overlapping)) == _bits(
                P._reference_sum(overlapping)
            ), overlapping


def _oracle_clamp(a, window):
    """``clamp`` by rate_at evaluation at the window's start and at every
    breakpoint inside it, ending in the int 0 at a finite end."""
    inside = [t for t, _ in a.breakpoints if window.start < t < window.end]
    points = [(t, P._reference_rate_at(a, t)) for t in [window.start] + inside]
    if not math.isinf(window.end):
        points.append((window.end, 0))
    return RateProfile(points)


def test_exact_queries_exhaustive_small_grid():
    """Every profile over a small integer grid, queried from int,
    integral-Fraction and fractional starts and windows: the answer and
    its type must be the oracle's.  Pins the type rules random draws hit
    rarely, e.g. a ``Fraction(2, 1)`` start whose first walked segment
    makes the remaining quantity — and so the answer — a Fraction."""
    import itertools

    times = (0, 1, Fraction(3), 4)
    points = (0, Fraction(1), 2, Fraction(5, 2), Fraction(3, 1))
    quantities = (1, 2, Fraction(2, 1), Fraction(3, 2), 5)
    for rates in itertools.product((0, 1, 2, Fraction(2, 1)), repeat=4):
        raw = list(zip(times, rates))
        for start, quantity in itertools.product(points, quantities):
            fast = _outcome(
                lambda: RateProfile(raw).earliest_accumulation(start, quantity)
            )
            reference = _outcome(
                lambda: P._reference_earliest_accumulation(
                    RateProfile(raw), start, quantity
                )
            )
            assert fast == reference, (raw, start, quantity)
        for lo, hi in itertools.combinations(points, 2):
            window = Interval(lo, hi)
            for query, oracle in (
                (lambda: RateProfile(raw).integral(window),
                 lambda: P._reference_integral(RateProfile(raw), window)),
                (lambda: RateProfile(raw).clamp(window),
                 lambda: _oracle_clamp(RateProfile(raw), window)),
                (lambda: RateProfile(raw).rate_at(hi),
                 lambda: P._reference_rate_at(RateProfile(raw), hi)),
            ):
                assert _outcome(query) == _outcome(oracle), (raw, window)


def test_truncate_before_is_clamp_in_value_and_type():
    """Expiry is a prefix cut on exact profiles: ``truncate_before(t)``
    gives ``clamp``'s (and the oracle's) breakpoints with their types,
    from tuple-built and list-built (spliced) profiles alike, for int and
    Fraction cut times on and between breakpoints.  Inexact operands
    (a float profile or a float cut time) take ``clamp`` itself."""
    rng = random.Random(29)
    claim = RateProfile([(1, 1), (2, 0)])
    cuts = 0
    for _ in range(400):
        base = RateProfile(_exact_points(rng))
        for profile in (base, base + claim):
            times = [t for t, _ in profile.breakpoints]
            for t in [_exact_coord(rng), _exact_coord(rng)] + [
                _other_type(time) for time in times[:3]
            ] + times[:3]:
                window = Interval(t, math.inf)
                got = _outcome(lambda: profile.truncate_before(t))
                assert got == _outcome(lambda: profile.clamp(window))
                assert got == _outcome(lambda: _oracle_clamp(profile, window))
                result = profile.truncate_before(t)
                if result is not profile and not result.is_zero:
                    assert result._pts is None  # the list-form prefix cut
                    cuts += 1
    assert cuts > 500
    floats = RateProfile([(0.5, 2.0), (3.0, 0.0)])
    for t in (0, 1, Fraction(7, 2), 0.25, 1.5, 3.0):
        assert _typed(floats.truncate_before(t)) == _typed(
            floats.clamp(Interval(t, math.inf))
        )
    exact = RateProfile([(0, 2), (4, 0)])
    assert _typed(exact.truncate_before(1.5)) == _typed(
        exact.clamp(Interval(1.5, math.inf))
    )


# ----------------------------------------------------------------------
# The key-index family: exact searches bisect a float key index
# ----------------------------------------------------------------------

_THIRD = Fraction(1, 3)
_TINY = Fraction(1, 10 ** 30)
_BELOW = Fraction(1 / 3)  # the double nearest a third, exactly (below it)
_ABOVE = Fraction(math.nextafter(1 / 3, 1))  # the next double up

#: Times whose float keys collide or sit one ulp apart: a third and its
#: neighbours ``10**-30`` away (all on one double), the doubles either
#: side of a third as exact Fractions and the tie halfway between them,
#: and the integers around ``2**53``, past which ints skip doubles.
_CLOSE = [
    0, 1, 2, 3, 7, Fraction(5, 2),
    _THIRD - _TINY, _THIRD, _THIRD + _TINY,
    _BELOW, _ABOVE, (_BELOW + _ABOVE) / 2,
    2 ** 53 - 1, 2 ** 53, 2 ** 53 + 1, 2 ** 53 + 2, Fraction(2 ** 54 + 1, 2),
]

#: Times beyond float range, whose keys saturate to +-inf.
_FAR = [
    -(10 ** 400) - 1, -(10 ** 400), Fraction(-(10 ** 400), 7),
    Fraction(10 ** 400, 3), 10 ** 400, 10 ** 400 + 1,
]


def _key_times(rng, pool, ints_only=False, fewest=1):
    """A sorted, duplicate-free draw of at least ``fewest`` values from
    ``pool``, integral values under either exact type at random."""
    values = [v for v in pool if not ints_only or type(v) is int]
    count = rng.randint(min(fewest, len(values)), len(values))
    drawn = sorted(set(rng.sample(values, count)))
    if ints_only:
        return drawn
    return [_other_type(v) if rng.random() < 0.3 else v for v in drawn]


def _key_queries(pool):
    """Every pool value under both exact types: keys on, between and
    beyond each drawn time."""
    return pool + [_other_type(v) for v in pool]


@contextlib.contextmanager
def _index_off():
    """No profile builds a float key index: every exact search takes the
    plain bisect of the times."""
    saved = P._float_keys
    P._float_keys = lambda times: None
    try:
        yield
    finally:
        P._float_keys = saved


def _oracle_truncate(a, t):
    """``truncate_before`` by rate_at evaluation at ``t`` and at every
    later breakpoint (``_oracle_clamp`` to ``(t, inf)``, with no
    ``Interval``, whose checks a time past float range overflows)."""
    later = [s for s, _ in a.breakpoints if s > t]
    return RateProfile((s, P._reference_rate_at(a, s)) for s in [t] + later)


def _oracle_latest_accumulation(a, end, quantity):
    """Latest accumulation by a linear walk back over every breakpoint."""
    if quantity <= 0:
        return end
    remaining = quantity
    pts = a.breakpoints
    for i in range(len(pts) - 1, -1, -1):
        start, rate = pts[i]
        if rate == 0 or start >= end:
            continue
        stop = min(end, pts[i + 1][0] if i + 1 < len(pts) else math.inf)
        capacity = rate * (stop - start)
        if capacity >= remaining:
            return stop - P.exact_div(remaining, rate)
        remaining -= capacity
    return None


def test_key_index_searches_equal_bisect():
    """The exact searches return ``bisect_left``/``bisect_right`` of the
    times for every key and every ``lo``: times one ulp apart or closer,
    ints past ``2**53``, times and keys past float range, Fraction keys
    into all-int lists, keys equal to a breakpoint under either type.
    The index is one ``float_key`` per time, never decreasing."""
    rng = random.Random(34)
    keys = _key_queries(_CLOSE + _FAR)
    for trial in range(300):
        times = _key_times(rng, _CLOSE + _FAR, ints_only=trial % 4 == 0)
        index = P._float_keys(times)
        assert index == [P.float_key(t) for t in times]
        assert index == sorted(index)
        for key in keys:
            lo = rng.randint(0, len(times))
            for start in (0, lo):
                assert P._bisect_left_exact(times, index, key, start) == (
                    bisect.bisect_left(times, key, start)
                ), (times, key, start)
                assert P._bisect_right_exact(times, index, key, start) == (
                    bisect.bisect_right(times, key, start)
                ), (times, key, start)
    assert P.float_key(10 ** 400) == math.inf
    assert P.float_key(Fraction(-(10 ** 400), 7)) == -math.inf
    assert P.float_key(2 ** 53 + 1) == P.float_key(2 ** 53)


def _key_profile(rng, pool, ints_only=False):
    """Breakpoints on drawn times, a few either side of
    ``KEY_INDEX_MIN``."""
    times = _key_times(rng, pool, ints_only, fewest=P.KEY_INDEX_MIN - 2)
    rates = [
        rng.choice([0, 1, 2, 5, Fraction(0), Fraction(1, 3), Fraction(3, 1)])
        for _ in times
    ]
    if rng.random() < 0.5:
        rates[-1] = 0
    return list(zip(times, rates))


def _key_claim(rng, pool):
    """A claim-shaped right operand (int-0 end) between two pool keys."""
    lo, hi = sorted(rng.sample(_key_queries(pool), 2))
    if lo == hi:
        hi = lo + 1
    return [(lo, rng.choice([1, Fraction(1, 3)])), (hi, 0)]


def _key_cases(rng, pa, pb, pool):
    """``(name, query, oracle, type_faithful)`` for the searches of ``A``
    (tuple built) and ``A + B`` (spliced, list form): point queries,
    prefix cuts and accumulation walks from every pool key, a few
    windows, and the window splice."""
    A = lambda: RateProfile(pa)  # noqa: E731 - fresh operands per call
    B = lambda: RateProfile(pb)  # noqa: E731
    AB = lambda: A() + B()  # noqa: E731
    ref_ab = lambda: P._reference_add(A(), B())  # noqa: E731
    cases = [
        ("add", AB, ref_ab, True),
        ("subtract", lambda: A().subtract(B()),
         lambda: P._reference_subtract(A(), B()), True),
        ("add-then-subtract", lambda: AB().subtract(B()),
         lambda: P._reference_subtract(ref_ab(), B()), True),
    ]
    far = any(v in _FAR for v in pool)
    quantity = rng.choice([1, Fraction(2, 3), 7])
    for key in _key_queries(pool):
        for name, X, ref in (("", A, A), ("spliced-", AB, ref_ab)):
            cases += [
                (name + "rate_at", lambda X=X, k=key: X().rate_at(k),
                 lambda ref=ref, k=key: P._reference_rate_at(ref(), k), True),
                (name + "truncate_before",
                 lambda X=X, k=key: X().truncate_before(k),
                 lambda ref=ref, k=key: _oracle_truncate(ref(), k), True),
            ]
            if far:
                continue  # the oracles below build Intervals
            cases += [
                (name + "earliest_accumulation",
                 lambda X=X, k=key: X().earliest_accumulation(k, quantity),
                 lambda ref=ref, k=key: P._reference_earliest_accumulation(
                     ref(), k, quantity), True),
                (name + "latest_accumulation",
                 lambda X=X, k=key: X().latest_accumulation(k, quantity),
                 lambda ref=ref, k=key: _oracle_latest_accumulation(
                     ref(), k, quantity), True),
            ]
    if not far:
        for _ in range(6):
            lo, hi = sorted(rng.sample(_key_queries(pool), 2))
            if lo == hi:
                continue
            w = Interval(lo, hi)
            for name, X, ref in (("", A, A), ("spliced-", AB, ref_ab)):
                cases += [
                    (name + "integral", lambda X=X, w=w: X().integral(w),
                     lambda ref=ref, w=w: P._reference_integral(ref(), w), True),
                    # The oracle answers 0 as the int; the fast path hands
                    # back the stored rate, which may be Fraction(0).
                    (name + "min_rate", lambda X=X, w=w: X().min_rate(w),
                     lambda ref=ref, w=w: P._reference_min_rate(ref(), w),
                     False),
                    (name + "clamp", lambda X=X, w=w: X().clamp(w),
                     lambda ref=ref, w=w: _oracle_clamp(ref(), w), True),
                ]
    return cases


def _assert_index_kept(profile, context):
    """``profile`` has a float key index, one ``float_key`` per time,
    wherever it has ``KEY_INDEX_MIN`` times and one is a Fraction (a
    shorter list may keep the index it was cut from)."""
    if profile.is_zero:
        return
    profile._ensure_index()
    times = profile._times
    if profile._keys is None:
        assert not (
            len(times) >= P.KEY_INDEX_MIN and Fraction in map(type, times)
        ), (profile, "no index", context)
    else:
        assert profile._keys == list(map(P.float_key, times)), context


@pytest.mark.parametrize("pool", ["close", "far"])
def test_key_index_queries_match_oracles_in_value_and_type(pool):
    """Every search site answers as the plain bisect does (the index
    forced off) in value, type and error text, and as the oracle in
    value, carrying its types where it is type-faithful, on profiles
    drawn from the adversarial times: tuple-built and spliced, with and
    without a Fraction time, either side of ``KEY_INDEX_MIN`` (an all-int
    or a short list builds no index).  Beyond float range only the
    oracles that build no ``Interval`` apply."""
    values = _CLOSE if pool == "close" else _CLOSE[:7] + _FAR
    rng = random.Random(3434)
    indexed = 0
    for trial in range(60):
        pa = _key_profile(rng, values, ints_only=trial % 5 == 0)
        pb = _key_claim(rng, values)
        a, spliced = RateProfile(pa), RateProfile(pa) + RateProfile(pb)
        for profile in (a, spliced):
            _assert_index_kept(profile, (pa, pb))
            indexed += profile._keys is not None
        if all(type(t) is int for t, _ in pa):
            assert a._keys is None
        for key in _key_queries(values):
            # Prefix cuts and splices into them carry the index forward
            # or build it once a list is long and holds a Fraction.
            for cut in (a.truncate_before(key), spliced.truncate_before(key)):
                _assert_index_kept(cut, (pa, pb, key))
                _assert_index_kept(cut + RateProfile(pb), (pa, pb, key))
        for name, query, oracle, type_faithful in _key_cases(rng, pa, pb, values):
            got = _outcome(query)
            with _index_off():
                plain = _outcome(query)
            assert got == plain, (name, pa, pb, got, plain)
            expected = _outcome(oracle)
            assert got[:2] == expected[:2], (name, pa, pb, got, expected)
            if got[0] == "ok" and type_faithful:
                assert got == expected, (name, pa, pb, got, expected)
    assert 40 < indexed < 120, indexed  # both sides of the threshold


def _shaped_arrivals(seed):
    """The ``admit-exact`` stream's shape: 240 integer demands of 1-3
    over 6-13 slices, starting anywhere in a 408-slice horizon."""
    rng = random.Random(seed)
    out = []
    for index in range(240):
        start = rng.randrange(0, 388)
        out.append(ComplexRequirement(
            [Demands({cpu("l1"): rng.randrange(1, 4)})],
            Interval(start, start + rng.randrange(6, 14)),
            label=f"job{index}",
        ))
    return out


def test_admission_digests_identical_with_and_without_key_index(monkeypatch):
    """The index changes no decision, no breakpoint and no type: exact
    admission on the ``admit-exact`` shape and on Fraction demands gives
    the same decisions and typed slack and commitments with every
    profile's index forced off."""
    searches = []
    for name in ("_bisect_left_exact", "_bisect_right_exact"):
        def counted(*args, _search=getattr(P, name)):
            searches.append(1)
            return _search(*args)
        monkeypatch.setattr(P, name, counted)
    runs = [
        (_shaped_arrivals(seed), 408, 60) for seed in (0, 1)
    ] + [(_exact_arrivals(80, 200), 200, 1)]
    indexed = [_exact_run(*run) for run in runs]
    assert searches  # the exact searches really took the index
    monkeypatch.setattr(P, "_float_keys", lambda times: None)
    for run, (decisions, digest) in zip(runs, indexed):
        assert _exact_run(*run) == (decisions, digest)
        assert any(decisions)
        assert any("/" in str(c) for row in digest for pt in row for c in pt)


def test_mesh_fingerprint_and_checkpoints_identical_without_key_index(
    tmp_path, monkeypatch
):
    """E23's plan (seed 0, horizon 160, checkpoints every 25 slices): the
    report fingerprint and every checkpoint file's bytes are the same
    with the index forced off."""
    plan = PartitionPlan(
        seed=0, horizon=160, children=3, partition_start=40,
        partition_duration=24, link_delay=1, link_jitter=2, link_loss=0.1,
    )

    def run(directory):
        fingerprint = report_fingerprint(*run_mesh(
            plan, checkpoint_every=25, checkpoint_dir=directory
        ))
        files = {
            path.relative_to(directory).as_posix(): path.read_bytes()
            for path in sorted(directory.rglob("*")) if path.is_file()
        }
        return fingerprint, files

    indexed = run(tmp_path / "indexed")
    monkeypatch.setattr(P, "_float_keys", lambda times: None)
    plain = run(tmp_path / "plain")
    assert indexed[1]  # the run really checkpointed
    assert indexed == plain


def test_pickled_profiles_are_the_same_bytes_with_or_without_key_index():
    """The index is derived and never pickled: a spliced exact profile
    and a prefix cut of it pickle to the same bytes whether or not their
    index was built, and before and after a query used it."""
    pa = [(0, 2), (_THIRD, 3), (_THIRD + _TINY, 1)]
    pa += [(k, k % 3) for k in range(1, P.KEY_INDEX_MIN)]
    claim = [(Fraction(1, 5), 1), (_THIRD, 0)]

    def build():
        spliced = RateProfile(pa) + RateProfile(claim)
        return spliced, spliced.truncate_before(Fraction(1, 4))

    indexed = build()
    assert all(p._keys is not None for p in indexed)
    before = [pickle.dumps(p) for p in indexed]
    for profile in indexed:
        profile.rate_at(_THIRD)
    with _index_off():
        plain = build()
    assert all(p._keys is None for p in plain)
    assert [pickle.dumps(p) for p in indexed] == before
    assert [pickle.dumps(p) for p in plain] == before


# ----------------------------------------------------------------------
# The float window family: float64 kernels, checked bit for bit
# ----------------------------------------------------------------------

def _float_wide_operands(rng):
    """A wide float left operand (16-300 breakpoints) and a right one
    that is usually the left one clamped to a run of its segments, the
    shape of an admission claim.

    The left operand's rates include ``-0.0``, ``inf`` and ``0.0`` gaps,
    and a time may be ``-0.0``.  The claim spans 1-8 segments (well
    inside the row cap), 12-20 (either side of it) or 21-30 (past it).
    It may start before the left operand, end past its horizon, sit
    off its breakpoints, meet a ``0.0`` time as ``-0.0``, end in a
    ``-0.0`` rate (not bounded support), be a partial claim, exceed the
    left operand by dust just inside or just outside ``EPSILON``, or
    meet an ``inf`` rate (``inf - inf``) ahead of a row that goes
    negative."""
    t = rng.choice([0.0, -0.0, -2.0, 1.5])
    pa = []
    for _ in range(rng.randint(16, rng.choice([80, 300]))):
        rate = rng.choice([0.0, -0.0, 1.0, 2.5, 60.0, 0.1, 1 / 3, 7.25])
        if rng.random() < 0.02:
            rate = math.inf
        pa.append((t, rate))
        t += rng.choice([1.0, 0.5, 2.0, 0.1, 1 / 3])
    if rng.random() < 0.7:
        pa.append((t, rng.choice([0.0, -0.0])))
    a = RateProfile(pa)
    times = [time for time, _ in a.breakpoints]
    i = rng.randrange(len(times) - 1)
    span = rng.choice([rng.randint(1, 8), rng.randint(12, 20), rng.randint(21, 30)])
    lo, hi = times[i], times[min(len(times) - 1, i + span)]
    shape = rng.randrange(5)
    if shape == 0:
        lo, hi = -lo if lo == 0.0 else lo, -hi if hi == 0.0 else hi
    elif shape == 1:
        lo = times[0] - rng.choice([1.0, 0.25])
    elif shape == 2:
        hi = times[-1] + rng.choice([2.0, 0.375])
    elif shape == 3:
        lo, hi = lo + 0.2, hi + 0.3
    pb = [(lo, P._reference_rate_at(a, lo))]
    pb += [(time, rate) for time, rate in a.breakpoints if lo < time < hi]
    pb.append((hi, 0.0))
    variant = rng.randrange(6)
    if variant == 0:
        pb[-1] = (hi, -0.0)
    elif variant == 1:
        k = rng.randrange(len(pb) - 1)
        bump = rng.choice([1.0, 5e-10, 2e-9])  # beyond, inside, just past EPSILON
        pb[k] = (pb[k][0], pb[k][1] + bump)
    elif variant == 2:
        pb[:-1] = [(time, rate * 0.5) for time, rate in pb[:-1]]
    elif variant == 3 and len(pb) > 2:
        pb[0] = (pb[0][0], math.inf)  # inf - inf where the left one is inf
        pb[1] = (pb[1][0], pb[1][1] + 1.0)  # then a negative row
    return pa, pb


def _bits(value):
    """A comparison key that tells ``-0.0`` from ``0.0``."""
    if isinstance(value, RateProfile):
        return tuple(
            (t, math.copysign(1.0, t), r, math.copysign(1.0, r))
            for t, r in value._points
        )
    return value


def _float_outcome(fn):
    """``("ok", bits)`` or ``("raise", exception name, message)``."""
    try:
        return ("ok", _bits(fn()))
    except (UndefinedOperationError, InvalidTermError) as exc:
        return ("raise", type(exc).__name__, str(exc))


_FLOAT_OPS = {
    "add": lambda a, b: a + b,
    "subtract": lambda a, b: a.subtract(b),
    "dominates": lambda a, b: a.dominates(b),
    # A commit's result feeding the next commit stays on the arrays.
    "subtract-then-add": lambda a, b: a.subtract(b) + b,
}


def _float_agree(pa, pb):
    """Every float operation on ``pa``/``pb`` answers bit for bit, with
    the same error type and text, as the whole-array kernels and the
    scalar path do."""
    for name, op in _FLOAT_OPS.items():
        def run():
            return op(RateProfile(pa), RateProfile(pb))
        fast = _float_outcome(run)
        with _whole_array_kernels():
            whole = _float_outcome(run)
        assert fast == whole, (name, pa, pb, fast, whole)
        with _numpy_off():
            scalar = _float_outcome(run)
        assert fast == scalar, (name, pa, pb, fast, scalar)


def test_float_window_family_is_bit_identical_to_whole_arrays(monkeypatch):
    """Wide float operands against bounded claims (and a few unbounded
    ones): the window splice must reproduce the whole-array kernels bit
    for bit, signed zeros included, and raise what they raise, in the
    same order.  The trials must exercise both the splice and the
    fallback, or the comparison is vacuous."""
    if not _vec.HAVE_NUMPY:
        pytest.skip("numpy unavailable; scalar fallback is the only path")
    calls = {"window": 0, "whole": 0}
    window = _vec._window

    def counted(va, vb):
        rows = window(va, vb)
        if _vec.WINDOW_MAX_ROWS:  # the shipped cap, not _whole_array_kernels
            calls["whole" if rows is None else "window"] += 1
        return rows

    monkeypatch.setattr(_vec, "_window", counted)
    rng = random.Random(20261018)
    for _ in range(TRIALS // 5):
        _float_agree(*_float_wide_operands(rng))
    assert min(calls.values()) > TRIALS // 5, calls


@pytest.mark.parametrize("pa, pb", [
    # Signed zeros: a -0.0 rate outside the window turns +0.0 in a sum
    # and stays -0.0 in a difference; a -0.0 time meets a 0.0 one.
    ([(-1.0, 1.0), (0.0, -0.0), (1.0, 2.0), (3.0, 0.0)],
     [(1.0, 0.5), (2.0, 0.0)]),
    ([(0.0, 1.0), (1.0, -0.0), (2.0, 3.0), (4.0, 0.0)],
     [(-0.0, 1.0), (0.5, 0.0)]),
    ([(-0.0, 1.0), (1.0, 2.0)], [(0.0, -0.0), (0.5, 1.0), (0.75, 0.0)]),
    # A -0.0 end is not bounded support: the whole arrays answer.
    ([(0.0, 1.0), (1.0, -0.0), (2.0, 3.0)], [(0.5, 1.0), (1.5, -0.0)]),
    # inf - inf alone, and ahead of a row that goes negative.
    ([(0.0, math.inf), (1.0, 1.0), (2.0, 0.0)], [(0.0, math.inf), (1.0, 0.0)]),
    ([(0.0, math.inf), (1.0, 1.0), (2.0, 0.0)],
     [(0.0, math.inf), (1.0, 2.0), (1.5, 0.0)]),
    # Dust just inside and just outside EPSILON.
    ([(0.0, 1.0), (4.0, 0.0)], [(1.0, 1.0 + 5e-10), (2.0, 0.0)]),
    ([(0.0, 1.0), (4.0, 0.0)], [(1.0, 1.0 + 2e-9), (2.0, 0.0)]),
    # The claim removes everything, and a claim past both ends.
    ([(0.0, 1.0), (4.0, 0.0)], [(0.0, 1.0), (4.0, 0.0)]),
    ([(1.0, 1.0), (4.0, 0.0)], [(0.0, 0.5), (6.0, 0.0)]),
    # Negative ahead of the minuend's first breakpoint, window and whole
    # arrays: the error names the int 0 the scalar sweep reads there.
    ([(0.0, 1.0), (10.0, 0.0)], [(-3.0, 2.5), (5.0, 0.0)]),
    ([(0.0, 1.0), (10.0, 0.0)], [(-3.0, 2.5), (5.0, 1.0)]),
])
def test_float_window_edge_cases(pa, pb):
    _float_agree(pa, pb)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_whole_array_subtract_of_inf_from_inf_raises_quietly():
    """``inf - inf`` on the whole arrays (an unbounded subtrahend) is a
    NaN rate, reported as ``InvalidTermError`` like the scalar path's,
    not escaping as numpy's ``RuntimeWarning``."""
    a = RateProfile([(0.0, math.inf)])
    with pytest.raises(InvalidTermError, match="NaN"):
        a.subtract(RateProfile([(0.0, math.inf)]))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_whole_array_saturating_sub_of_inf_from_inf_clamps_quietly():
    """``max(0, inf - inf)`` is the scalar path's 0, with no warning."""
    a = RateProfile([(0.0, math.inf)])
    b = RateProfile([(0.0, math.inf)])
    assert a.saturating_sub(b).is_zero
    assert _oracle_saturating_sub(a, b).is_zero


def test_float_error_names_the_int_zero_ahead_of_the_first_breakpoint():
    """The scalar sweep reads the int 0 ahead of the minuend's first
    breakpoint; the float kernels report it so, on the window and on
    the whole arrays."""
    a = RateProfile([(0.0, 1.0), (10.0, 0.0)])
    for end_rate in (0.0, 1.0):  # bounded: the window; unbounded: whole
        b = RateProfile([(-3.0, 2.5), (5.0, end_rate)])
        with pytest.raises(UndefinedOperationError) as caught:
            a.subtract(b)
        assert str(caught.value).endswith("at t=-3.0 (0 - 2.5)")


def test_float_unions_keep_the_first_zero():
    """A ``-0.0`` and a ``0.0`` breakpoint time are one time, and the
    union keeps the one met first, as the scalar sweep does.  numpy's
    sort orders the two arbitrarily once it holds a few dozen values, so
    ``from_segments`` must not take the zero the sort leaves first."""
    if not _vec.HAVE_NUMPY:
        pytest.skip("numpy unavailable; scalar fallback is the only path")
    starts = [float(k % 5) - 2.0 for k in range(40)]
    segments = [(Interval(-0.0, 1.0), 1.0)] + [
        (Interval(start, start + float(k % 3) + 1.0), 0.5 + k)
        for k, start in enumerate(starts)
    ]
    constants = [RateProfile.constant(rate, window) for window, rate in segments]
    with _numpy_off():
        scalar = _bits(RateProfile.from_segments(segments))
    assert any(t == 0.0 and s < 0 for t, s, _, _ in scalar)
    assert _bits(RateProfile.from_segments(segments)) == scalar
    assert _bits(RateProfile.sum(constants)) == scalar


def test_float_window_engages_and_falls_back(monkeypatch):
    """A commit into a wide float slack edits only the claim's window:
    the slack ``-`` splices once (the commit writes the slack only) and
    nothing merges the whole arrays; ``+`` of a narrow claim onto the
    wide slack splices too.  A claim holding more than
    ``WINDOW_MAX_ROWS`` rows goes to the whole-array merge."""
    if not _vec.HAVE_NUMPY:
        pytest.skip("numpy unavailable; scalar fallback is the only path")
    controller = AdmissionController(
        ResourceSet.of(term(60.0, cpu("l1"), 0.0, 400.0))
    )
    arrivals = _float_arrivals(241, 400)
    for requirement in arrivals[:-1]:
        controller.admit(requirement)
    slack = controller.expiring_slack.profile(cpu("l1"))
    assert slack._pts is None and len(slack._vt) >= 200
    calls = {"merge": 0, "_splice": 0}
    for name in calls:
        def counted(*args, _kernel=getattr(_vec, name), _name=name):
            calls[_name] += 1
            return _kernel(*args)
        monkeypatch.setattr(_vec, name, counted)
    assert controller.admit(arrivals[-1]).admitted
    assert calls == {"merge": 0, "_splice": 1}
    label = controller.admitted_labels[-1]
    claim = controller.schedule_of(label).consumption().profile(cpu("l1"))
    assert _bits(controller.expiring_slack.profile(cpu("l1")) + claim) == (
        _bits(slack)
    )
    assert calls == {"merge": 0, "_splice": 2}
    times = slack._vt.tolist()
    wide = slack.clamp(Interval(times[10], times[10 + _vec.WINDOW_MAX_ROWS]))
    assert (slack - wide) == P._reference_subtract(slack, wide)
    assert calls == {"merge": 1, "_splice": 2}
    monkeypatch.undo()
    assert controller.verify_slack()


def test_float_admission_never_imports_numpy_ma():
    """``np.union1d`` reached ``np.unique``, which imports ``numpy.ma``
    (~0.7 MB) on first use.  A fresh process running a float admission,
    a float ``sum`` and a float ``from_segments`` must not load it."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    if not _vec.HAVE_NUMPY:
        pytest.skip("numpy unavailable; nothing to import")
    script = (
        "import sys\n"
        "from repro.computation import ComplexRequirement, Demands\n"
        "from repro.decision import AdmissionController\n"
        "from repro.intervals import Interval\n"
        "from repro.resources import RateProfile, ResourceSet, cpu, term\n"
        "c = AdmissionController(ResourceSet.of(term(6.0, cpu('l1'), 0.0, 90.0)))\n"
        "for k in range(60):\n"
        "    c.admit(ComplexRequirement([Demands({cpu('l1'): 2.5})],\n"
        "            Interval(k, k + 8.0), label=f'j{k}'))\n"
        "slack = c.expiring_slack.profile(cpu('l1'))\n"
        "RateProfile.sum([slack, c.committed.profile(cpu('l1'))])\n"
        "RateProfile.from_segments([(Interval(0.0, 2.5), 1.0), (Interval(1.0, 3.0), 0.5)])\n"
        "print(slack._pts is None, 'numpy.ma' in sys.modules)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", script],
        env=env, capture_output=True, text=True, check=True,
    ).stdout.split()
    assert out == ["True", "False"]
