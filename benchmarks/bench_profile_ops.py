"""E15 — What the profile fast paths buy on the admission hot path.

Every decision procedure bottoms out in :class:`RateProfile` point and
window queries, so their complexity bounds the whole system.  This
experiment measures the rebuilt hot path against the retained
``_reference_*`` oracles (the pre-optimisation implementations kept in
:mod:`repro.resources.profile`):

* **micro ops** — ``rate_at`` / ``integral`` on a wide profile
  (``O(log n)`` bisection vs linear scans) and segment aggregation
  (one k-way breakpoint sweep vs quadratic repeated addition);
* **admission-heavy workload** — 1k+ computations admitted against one
  controller; the incremental expiring-slack cache vs a reference
  controller that recomputes ``available - committed`` before every
  attempt.  Decisions must not diverge *at all*: the speedup only counts
  because the answers are identical.  The workload runs twice: once with
  float (inexact) quantities, where the vectorized numpy kernels carry
  the profile algebra — the headline ``admission`` row — and once with
  integer (exact) quantities, where the exact profiles' Python lists and
  their window splice carry it (``admission_exact``).  The float
  workload uses dyadic rationals (halves over power-of-two durations) so
  every intermediate sum is exact in double precision and the
  zero-divergence gate is meaningful rather than luck.

Results (timings plus speedup factors) are written to
``BENCH_profile_ops.json`` so CI history can track regressions.

Runs standalone for CI smoke tests::

    PYTHONPATH=src python benchmarks/bench_profile_ops.py --quick
"""

from __future__ import annotations

import json
import random
import time
from pathlib import Path
from typing import Dict, List

from repro.computation import ComplexRequirement, Demands
from repro.decision import AdmissionController
from repro.intervals import Interval
from repro.resources import RateProfile, ResourceSet, cpu, term
from repro.resources.profile import (
    _reference_from_segments,
    _reference_integral,
    _reference_rate_at,
)

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_profile_ops.json"


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _wide_profile(breaks: int, seed: int = 3) -> RateProfile:
    rng = random.Random(seed)
    return RateProfile(
        (t, rng.randrange(0, 8)) for t in range(0, 2 * breaks, 2)
    )


def bench_point_queries(breaks: int, queries: int) -> Dict[str, float]:
    """rate_at + integral: bisection vs linear/segment scans."""
    profile = _wide_profile(breaks)
    rng = random.Random(5)
    points = [rng.randrange(-2, 2 * breaks + 2) for _ in range(queries)]
    windows = [
        Interval(t, t + rng.randrange(1, breaks)) for t in points
    ]
    profile.rate_at(0)  # build the index outside the timed region

    fast = _timed(
        lambda: [profile.rate_at(t) for t in points]
        and [profile.integral(w) for w in windows]
    )
    reference = _timed(
        lambda: [_reference_rate_at(profile, t) for t in points]
        and [_reference_integral(profile, w) for w in windows]
    )
    for t, w in zip(points, windows):
        assert profile.rate_at(t) == _reference_rate_at(profile, t)
        assert profile.integral(w) == _reference_integral(profile, w)
    return {"fast_s": fast, "reference_s": reference,
            "speedup": reference / fast if fast else float("inf")}


def bench_aggregation(segments: int) -> Dict[str, float]:
    """from_segments: one breakpoint sweep vs quadratic repeated addition."""
    rng = random.Random(9)
    pool = [
        (Interval(s, s + rng.randrange(1, 40)), rng.randrange(1, 5))
        for s in (rng.randrange(0, 4 * segments) for _ in range(segments))
    ]
    fast = _timed(lambda: RateProfile.from_segments(pool))
    reference = _timed(lambda: _reference_from_segments(pool))
    assert RateProfile.from_segments(pool) == _reference_from_segments(pool)
    return {"fast_s": fast, "reference_s": reference,
            "speedup": reference / fast if fast else float("inf")}


# ----------------------------------------------------------------------
# Admission-heavy workload
# ----------------------------------------------------------------------

def _arrivals(count: int, horizon: int, seed: int = 1, *, inexact: bool = False):
    rng = random.Random(seed)
    out = []
    for index in range(count):
        start = rng.randrange(0, horizon - 20)
        if inexact:
            # Dyadic float demands over power-of-two durations: the witness
            # rates stay exactly representable, so the vectorized and
            # scalar float paths agree bit for bit and zero decision
            # divergence is a real property, not rounding luck.
            amount = rng.randrange(2, 8) / 2.0
            duration = 2 ** rng.randrange(3, 5)
        else:
            amount = rng.randrange(1, 4)
            duration = rng.randrange(6, 14)
        out.append(
            ComplexRequirement(
                [Demands({cpu("l1"): amount})],
                Interval(start, start + duration),
                label=f"job{index}",
            )
        )
    return out


def _run_workload(available, arrivals) -> List[bool]:
    controller = AdmissionController(available)
    return [controller.admit(req).admitted for req in arrivals]


class _naive_profile_ops:
    """Context manager swapping the profile hot paths for the retained
    ``_reference_*`` oracles, so the *identical* admission workload can be
    timed under the pre-optimisation implementations."""

    PATCHES = (
        "rate_at", "integral", "min_rate", "earliest_accumulation",
        "__add__", "subtract", "sum", "from_segments",
    )

    def __enter__(self):
        from repro.resources import profile as P

        self._saved = {
            name: P.RateProfile.__dict__[name] for name in self.PATCHES
        }

        def naive_sum(profiles):
            out = P.RateProfile.zero()
            for prof in profiles:
                out = P._reference_add(out, prof)
            return out

        P.RateProfile.rate_at = lambda s, t: P._reference_rate_at(s, t)
        P.RateProfile.integral = lambda s, w: P._reference_integral(s, w)
        P.RateProfile.min_rate = lambda s, w: P._reference_min_rate(s, w)
        P.RateProfile.earliest_accumulation = (
            lambda s, start, q: P._reference_earliest_accumulation(s, start, q)
        )
        P.RateProfile.__add__ = lambda s, o: P._reference_add(s, o)
        P.RateProfile.subtract = (
            lambda s, o, tolerance=P.EPSILON: P._reference_subtract(s, o)
        )
        P.RateProfile.sum = staticmethod(naive_sum)
        P.RateProfile.from_segments = staticmethod(P._reference_from_segments)
        return self

    def __exit__(self, *exc):
        from repro.resources import profile as P

        for name, original in self._saved.items():
            setattr(P.RateProfile, name, original)
        return False


def bench_admission(
    count: int, horizon: int, *, inexact: bool = False
) -> Dict[str, float]:
    """The same seeded workload through the same controller twice: once on
    the fast paths, once with the naive reference ops patched in.  The
    reference cost grows roughly cubically in the admitted count (every
    admission subtracts over the full slack profile, and the naive
    subtraction is itself quadratic in breakpoints), so the measured
    speedup *understates* what larger systems gain.

    With ``inexact=True`` the capacity and demands are floats, which
    routes every profile operation through the float64 kernels of
    :mod:`repro.resources._vectorized` — the configuration the >=200x
    acceptance bar targets.  Otherwise the exact profiles run on their
    Python lists: each commit splices only the claim's window.
    """
    capacity = 60.0 if inexact else 60
    available = ResourceSet.of(term(capacity, cpu("l1"), 0, horizon))
    arrivals = _arrivals(count, horizon, inexact=inexact)

    fast_decisions: List[bool] = []
    reference_decisions: List[bool] = []
    fast = _timed(
        lambda: fast_decisions.extend(_run_workload(available, arrivals))
    )
    with _naive_profile_ops():
        reference = _timed(
            lambda: reference_decisions.extend(
                _run_workload(available, arrivals)
            )
        )
    divergence = sum(
        a != b for a, b in zip(fast_decisions, reference_decisions)
    )
    assert divergence == 0, (
        f"{divergence} admission decisions diverged from the reference"
    )
    return {
        "arrivals": count,
        "admitted": sum(fast_decisions),
        "kernel": "vectorized-float" if inexact else "exact-lists",
        "fast_s": fast,
        "reference_s": reference,
        "speedup": reference / fast if fast else float("inf"),
        "decision_divergence": divergence,
    }


# ----------------------------------------------------------------------

def run_suite(*, quick: bool = False) -> Dict[str, Dict[str, float]]:
    if quick:
        results = {
            "point_queries": bench_point_queries(breaks=400, queries=800),
            "aggregation": bench_aggregation(segments=250),
            "admission": bench_admission(count=120, horizon=300, inexact=True),
            "admission_exact": bench_admission(count=120, horizon=300),
        }
    else:
        results = {
            "point_queries": bench_point_queries(breaks=2000, queries=5000),
            "aggregation": bench_aggregation(segments=1200),
            # The reference legs take minutes here: the naive ops are
            # cubic in the admitted count (see bench_admission).
            "admission": bench_admission(
                count=2000, horizon=3400, inexact=True
            ),
            "admission_exact": bench_admission(count=1000, horizon=1700),
        }
        # Acceptance: 1k+ admitted and zero divergence on both paths;
        # >= 200x for the vectorized float headline, >= 5x for the
        # exact path.
        assert results["admission"]["admitted"] >= 1000, results["admission"]
        assert results["admission"]["speedup"] >= 200.0, results["admission"]
        assert results["admission_exact"]["admitted"] >= 1000, (
            results["admission_exact"]
        )
        assert results["admission_exact"]["speedup"] >= 5.0, (
            results["admission_exact"]
        )
    return results


def write_results(results: Dict[str, Dict[str, float]]) -> None:
    RESULTS_PATH.write_text(json.dumps(results, indent=2) + "\n")


def _render(results: Dict[str, Dict[str, float]]) -> str:
    lines = ["E15 — profile fast paths vs reference oracles"]
    for name, row in results.items():
        lines.append(
            f"  {name:14s} fast={row['fast_s']:.4f}s "
            f"reference={row['reference_s']:.4f}s "
            f"speedup={row['speedup']:.1f}x"
            + (
                f" admitted={row['admitted']}"
                if "admitted" in row
                else ""
            )
        )
    return "\n".join(lines)


def test_fast_paths_agree_and_win(benchmark):
    results = benchmark.pedantic(
        lambda: run_suite(quick=True), rounds=1, iterations=1
    )
    assert results["admission"]["decision_divergence"] == 0
    assert results["admission_exact"]["decision_divergence"] == 0
    # Quick sizes are small; demand agreement always, dominance loosely.
    assert results["point_queries"]["speedup"] > 1.0
    benchmark.extra_info["table"] = _render(results)


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="profile fast paths vs retained reference oracles"
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="small sizes for CI smoke runs (still fails on divergence)",
    )
    parser.add_argument(
        "--no-write", action="store_true",
        help="skip writing BENCH_profile_ops.json",
    )
    args = parser.parse_args(argv)
    results = run_suite(quick=args.quick)
    if not args.no_write:
        write_results(results)
        print(f"wrote {RESULTS_PATH}")
    print(_render(results))
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
