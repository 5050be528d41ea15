"""Differential fuzzing of the profile fast paths against the oracles.

The vectorized (numpy float64) inexact path and the scalar fast path
must both be *indistinguishable* from the retained ``_reference_*``
implementations — same breakpoints, same values, same exceptions — over
seeded random profiles that deliberately mix numeric types (int, float,
Fraction) and force the historical trouble spots: coincident
breakpoints, zero-width segments, window edges landing exactly on
breakpoints under a different numeric type.

The ``exact`` family drives the scaled-integer kernels (int64 numerators
over a common denominator) with ints, small-denominator Fractions,
integral Fractions (``Fraction(k, 1)``) and values that overflow int64
once rescaled (which must fall back to the scalar path).  There the
contract is stricter: every coordinate must match in value *and*
``type()``, because ``Fraction(2, 1)`` and ``2`` serialize differently
and the pinned gold digests see the difference.

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

import contextlib
import pickle
import random
from fractions import Fraction

import pytest

from repro.computation import ComplexRequirement, Demands
from repro.decision import AdmissionController
from repro.errors import InvalidTermError, UndefinedOperationError
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
    # Exact operands never touch the float kernels, and operations on
    # small tuple-form exact profiles stay on the scalar path.
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


def _exact_run(arrivals, horizon):
    """Decisions plus a typed digest of the final slack and commitments
    (``time_to_wire`` writes ``Fraction(2, 1)`` as ``"2/1"``, ``2`` as
    ``2``)."""
    controller = AdmissionController(
        ResourceSet.of(term(1, cpu("l1"), 0, horizon))
    )
    decisions = [controller.admit(req).admitted for req in arrivals]
    on_kernels = bool(controller.expiring_slack.profile(cpu("l1"))._den)
    digest = [
        [(time_to_wire(t), time_to_wire(r)) for t, r in profile.breakpoints]
        for resources in (controller.expiring_slack, controller.committed)
        for profile in resources.profiles().values()
    ]
    return decisions, digest, on_kernels


def test_exact_admission_digests_identical_with_and_without_numpy(monkeypatch):
    """The exact workload decided on the integer kernels and re-decided
    on the scalar Fraction path must agree on every decision and on the
    typed wire form of the slack and the committed path."""
    if not _vec.HAVE_NUMPY:
        pytest.skip("numpy unavailable; both runs would be scalar")
    arrivals = _exact_arrivals(80, 200)
    kernel_decisions, kernel_digest, on_kernels = _exact_run(arrivals, 200)
    assert on_kernels  # the slack really lived on the integer kernels
    monkeypatch.setattr(_vec, "HAVE_NUMPY", False)
    scalar_decisions, scalar_digest, _ = _exact_run(arrivals, 200)
    assert kernel_decisions == scalar_decisions
    assert kernel_digest == scalar_digest
    assert any(kernel_decisions) and not all(kernel_decisions)
    assert any("/" in str(c) for row in kernel_digest for pt in row for c in pt)


# ----------------------------------------------------------------------
# The exact family: integer kernels, checked for value *and* type
# ----------------------------------------------------------------------

#: An int64-overflowing coordinate once rescaled onto a small-denominator
#: partner (forces the scalar fallback mid-algebra).
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


def _typed(value):
    """A comparison key that tells ``2`` from ``Fraction(2)``."""
    if isinstance(value, RateProfile):
        return tuple(
            (t, type(t), r, type(r)) for t, r in value._points
        )
    return value, type(value)


def _outcome(fn):
    """``("ok", value, typed)`` or ``("raise", exception name)``."""
    try:
        value = fn()
    except (UndefinedOperationError, InvalidTermError) as exc:
        return ("raise", type(exc).__name__)
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


def _exact_cases(rng):
    """One trial: ``(name, fast, reference, type_faithful)`` where each
    side is a thunk building fresh profiles from raw points.
    ``type_faithful`` marks oracles whose result types match the scalar
    fast path; ``_reference_integral`` and the repeated-addition
    ``from_segments``/``sum`` folds agree in value only (the fast sweeps
    carry a Fraction forward, the folds renormalise it away), and so does
    the recomputing ``saturating_sub`` oracle against a zero subtrahend
    (the fast path hands back the minuend itself)."""
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
        # Chains keep kernel results (array form) flowing into kernels.
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
             lambda: P._reference_integral(A(), window), False),
            ("clamp-then-integral",
             lambda: (A() + B()).clamp(window).integral(Interval(lo, hi + 1)),
             lambda: P._reference_integral(
                 P._reference_add(A(), B()).clamp(window),
                 Interval(lo, hi + 1)), False),
        ]
    return cases


@pytest.mark.parametrize("kernels", ["forced", "size-gated"])
def test_exact_family_matches_reference_in_value_and_type(kernels, monkeypatch):
    """``forced`` sends every exact operation to the integer kernels;
    ``size-gated`` keeps the shipped small-profile cutoff, so operand
    pairs straddle the scalar/kernel boundary.  Either way the answer
    must equal the oracle's value, carry the scalar fast path's exact
    types, and raise exactly when the oracle raises."""
    if kernels == "forced":
        monkeypatch.setattr(P, "EXACT_KERNEL_MIN_BREAKPOINTS", 0)
    rng = random.Random(20261017)
    for _ in range(TRIALS // 5):
        for name, fast, reference, type_faithful in _exact_cases(rng):
            got = _outcome(fast)
            expected = _outcome(reference)
            with _numpy_off():
                scalar = _outcome(fast)
            assert got == scalar, (name, got, scalar)
            assert got[0] == expected[0], (name, got, expected)
            if got[0] == "ok":
                assert got[1] == expected[1], (name, got, expected)
                if type_faithful:
                    assert got == expected, (name, got, expected)


def test_exact_kernels_engage_and_fall_back():
    """Guards against a silent fallback that would make the exact
    family vacuous, and pins the fallbacks the kernels must leave to the
    scalar path."""
    if not _vec.HAVE_NUMPY:
        pytest.skip("numpy unavailable; scalar fallback is the only path")
    big = RateProfile(
        [(Fraction(k, 3), k % 4) for k in range(P.EXACT_KERNEL_MIN_BREAKPOINTS)]
    )
    small = RateProfile([(0, 1), (Fraction(5, 2), Fraction(4, 1))])
    result = big + small
    assert result._pts is None and result._den  # array form, no tuples
    assert result._vt.dtype.kind == "i"
    # The float kernels are never involved.
    assert result._vok is None
    # Small tuple-form pairs stay scalar.
    assert (small + small)._pts is not None
    # A value overflowing int64 once rescaled falls back to Fractions.
    huge = RateProfile([(0, 2 ** 61), (Fraction(1, 7), 0)])
    assert (big + huge) == P._reference_add(big, huge)
    assert (big + huge)._pts is not None
    # bool is a Rational but neither int nor Fraction: scalar path.
    flagged = RateProfile([(k, True) for k in range(0, 40, 2)])
    assert flagged._int_view() is None
    # Array-form results pickle, compare and hash like their tuples.
    clone = pickle.loads(pickle.dumps(result))
    assert clone == result and hash(clone) == hash(result)
    assert _typed(clone) == _typed(result)


def test_exact_queries_exhaustive_small_grid(monkeypatch):
    """Every profile over a small integer grid, queried from int,
    integral-Fraction and fractional starts and windows, on the forced
    integer kernels: the answer and its type must be the scalar path's
    (and the value the oracle's).  Pins the type rules random draws hit
    rarely, e.g. a ``Fraction(2, 1)`` start whose first walked segment
    makes the remaining quantity — and so the answer — a Fraction."""
    import itertools

    if not _vec.HAVE_NUMPY:
        pytest.skip("numpy unavailable; scalar fallback is the only path")
    monkeypatch.setattr(P, "EXACT_KERNEL_MIN_BREAKPOINTS", 0)
    times = (0, 1, Fraction(3), 4)
    points = (0, Fraction(1), 2, Fraction(5, 2), Fraction(3, 1))
    quantities = (1, 2, Fraction(2, 1), Fraction(3, 2), 5)
    for rates in itertools.product((0, 1, 2, Fraction(2, 1)), repeat=4):
        raw = list(zip(times, rates))
        for start, quantity in itertools.product(points, quantities):
            fast = _outcome(
                lambda: RateProfile(raw).earliest_accumulation(start, quantity)
            )
            with _numpy_off():
                scalar = _outcome(
                    lambda: RateProfile(raw).earliest_accumulation(
                        start, quantity
                    )
                )
            reference = _outcome(
                lambda: P._reference_earliest_accumulation(
                    RateProfile(raw), start, quantity
                )
            )
            assert fast == scalar == reference, (raw, start, quantity)
        for lo, hi in itertools.combinations(points, 2):
            window = Interval(lo, hi)
            for query in (
                lambda: RateProfile(raw).integral(window),
                lambda: RateProfile(raw).clamp(window),
                lambda: RateProfile(raw).rate_at(hi),
            ):
                fast = _outcome(query)
                with _numpy_off():
                    scalar = _outcome(query)
                assert fast == scalar, (raw, window)
