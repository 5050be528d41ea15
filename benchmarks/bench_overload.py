"""E21 — Goodput under sustained overload: plateau, not collapse.

The admission front door (:mod:`repro.service`) exists for one number:
goodput — admissions, each a kept promise by construction — when the
offered load is a multiple of what the cluster can absorb.  An
unprotected service collapses under overload because queueing delay
silently eats the slack its promises were priced on; the front door
charges that delay against each deadline *before* promising
(:func:`repro.decision.admission.clip_start`), sheds what cannot
survive the wait, and degrades to the conservative Theorem-1 screen
under brownout.

The sweep: flash-crowd load multipliers × shed policies
(``deadline``-aware vs classic ``tail-drop``), every cell served by
:func:`repro.service.serve` on the same seeded stream.  Claims pinned:

* **No queueing violation, anywhere** — at every multiplier, under both
  policies, every admitted schedule fits inside ``(decision time,
  deadline)``: :meth:`~repro.service.ServiceReport.queueing_violations`
  is empty.  Overload degrades *throughput*, never *promises*.
* **Plateau** — at 10× sustained overload, deadline-aware goodput stays
  at or above the unloaded (1×) level instead of collapsing below it.
* **Deadline-aware beats tail-drop where it matters** — at the highest
  multiplier, shedding by surviving slack admits at least as much as
  shedding by queue position.
* **Bounded decision latency** — the p99 time from arrival to admission
  verdict stays within the per-request deadline slack (an admitted
  request always hears back while its promise is still keepable).
* **Replay identity** — :func:`repro.faults.replay_identity` finds every
  cell's decision-log fingerprint byte-identical across a re-run.

Runs standalone for CI smoke tests::

    PYTHONPATH=src python benchmarks/bench_overload.py --quick
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List

from repro.faults import replay_identity, serve_fingerprint
from repro.service import SHED_POLICIES, ServiceConfig, serve
from repro.workloads import flash_crowd_requests

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_overload.json"

#: Flash-crowd load multipliers swept (1 = baseline, 10 = the headline).
MULTIPLIERS = (1, 2, 4, 10)
QUICK_MULTIPLIERS = (1, 10)

#: Per-request deadline slack of the flash-crowd stream; the p99
#: decision-latency bound (a verdict must land inside the slack).
DEADLINE_SLACK = 8

SEED = 0


def _config(shed_policy: str) -> ServiceConfig:
    # Same sizing as the chaos overload matrix: queues small enough that
    # a 10x burst genuinely pressures them, brownout engaging well
    # before the bound.
    return ServiceConfig(
        max_queue=16,
        shed_policy=shed_policy,
        brownout_enter=8,
        brownout_exit=3,
        seed=SEED,
    )


def _serve_cell(multiplier: int, shed_policy: str):
    resources, requests = flash_crowd_requests(
        SEED, multiplier=multiplier, deadline_slack=DEADLINE_SLACK
    )
    return serve(
        requests,
        resources=resources,
        config=_config(shed_policy),
        verify_brownout=True,
    )


def _p99(latencies: List[float]) -> float:
    if not latencies:
        return 0.0
    ordered = sorted(latencies)
    return ordered[min(len(ordered) - 1, int(0.99 * len(ordered)))]


def _cell_row(multiplier: int, shed_policy: str) -> Dict[str, object]:
    report, diverged = replay_identity(
        lambda: _serve_cell(multiplier, shed_policy), serve_fingerprint
    )
    digest = report.summary()
    latencies = [float(o.decided_at - o.arrival) for o in report.admitted]
    return {
        "multiplier": multiplier,
        "shed_policy": shed_policy,
        "offered": digest["offered"],
        "goodput": digest["admitted"],
        "rejected": digest["rejected"],
        "shed": digest["shed"],
        "shed_reasons": digest["shed_reasons"],
        "brownout_entries": digest["brownout_entries"],
        "queueing_violations": report.queueing_violations(),
        "p99_decision_latency": _p99(latencies),
        "max_wait": digest["max_wait"],
        "identical": not diverged,
        "fingerprint": digest["fingerprint"],
    }


def run_suite(*, quick: bool = False) -> Dict[str, object]:
    multipliers = QUICK_MULTIPLIERS if quick else MULTIPLIERS
    rows = [
        _cell_row(multiplier, shed_policy)
        for shed_policy in SHED_POLICIES
        for multiplier in multipliers
    ]
    results: Dict[str, object] = {
        "experiment": "overload goodput sweep (front door)",
        "seed": SEED,
        "deadline_slack": DEADLINE_SLACK,
        "multipliers": list(multipliers),
        "quick": quick,
        "rows": rows,
    }
    results["verdicts"] = _verdicts(rows, multipliers)
    return results


def _by(rows, shed_policy: str, multiplier: int) -> Dict[str, object]:
    return next(
        row
        for row in rows
        if row["shed_policy"] == shed_policy
        and row["multiplier"] == multiplier
    )


def _verdicts(rows, multipliers) -> Dict[str, bool]:
    top = max(multipliers)
    deadline_top = _by(rows, "deadline", top)
    deadline_base = _by(rows, "deadline", min(multipliers))
    taildrop_top = _by(rows, "tail-drop", top)
    return {
        "no_queueing_violations": all(
            not row["queueing_violations"] for row in rows
        ),
        "replay_identical": all(row["identical"] for row in rows),
        "goodput_plateaus": deadline_top["goodput"] >= deadline_base["goodput"],
        "deadline_beats_taildrop_at_peak": (
            deadline_top["goodput"] >= taildrop_top["goodput"]
        ),
        "p99_latency_within_slack": all(
            row["p99_decision_latency"] <= DEADLINE_SLACK
            for row in rows
            if row["shed_policy"] == "deadline"
        ),
    }


def assert_verdicts(results: Dict[str, object]) -> None:
    verdicts = results["verdicts"]
    failed = sorted(name for name, ok in verdicts.items() if not ok)
    assert not failed, f"overload verdicts failed: {', '.join(failed)}"


def _render(results: Dict[str, object]) -> str:
    lines = [
        "overload goodput sweep "
        f"(seed={results['seed']}, slack={results['deadline_slack']}):",
        "  policy     xload  offered  goodput  shed  rej  p99-lat  identical",
    ]
    for row in results["rows"]:
        lines.append(
            f"  {row['shed_policy']:<9}  "
            f"{row['multiplier']:>4}x  "
            f"{row['offered']:>7}  "
            f"{row['goodput']:>7}  "
            f"{row['shed']:>4}  "
            f"{row['rejected']:>3}  "
            f"{row['p99_decision_latency']:>7.2f}  "
            f"{row['identical']}"
        )
    verdicts = results["verdicts"]
    lines.append(
        "  verdicts: "
        + ", ".join(f"{name}={ok}" for name, ok in sorted(verdicts.items()))
    )
    return "\n".join(lines)


def write_results(results: Dict[str, object]) -> None:
    RESULTS_PATH.write_text(json.dumps(results, indent=2) + "\n")


# ----------------------------------------------------------------------
# pytest entry points
# ----------------------------------------------------------------------

def test_overload_sweep_verdicts(emit):
    results = run_suite(quick=True)
    assert_verdicts(results)
    emit(_render(results))


def test_full_multiplier_ladder_monotone_pressure():
    """More offered load can only increase what's offered and shed."""
    rows = [_cell_row(m, "deadline") for m in MULTIPLIERS]
    offered = [row["offered"] for row in rows]
    assert offered == sorted(offered)
    for row in rows:
        assert not row["queueing_violations"]
        assert row["identical"]


def test_bench_flash_crowd_service(benchmark):
    benchmark(lambda: _serve_cell(10, "deadline"))


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="goodput under sustained overload (E21)"
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="sweep only the 1x and 10x endpoints for CI smoke runs",
    )
    parser.add_argument(
        "--no-write", action="store_true",
        help="skip writing BENCH_overload.json",
    )
    args = parser.parse_args(argv)
    results = run_suite(quick=args.quick)
    assert_verdicts(results)
    if not args.no_write:
        write_results(results)
        print(f"wrote {RESULTS_PATH}")
    print(_render(results))
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
