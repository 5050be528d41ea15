"""E19 — What watching the system costs, and proof that it changes nothing.

The observability layer (:mod:`repro.observability`) instruments every
hot path the admission service exposes: Theorem-4 checks, the simulator
loop's phase tree, recovery offers, and the durability machinery.  The
layer is worthless if it perturbs the thing it observes, so this
experiment pins down two claims:

* **Overhead** — the identical simulation with a live
  :class:`~repro.observability.MetricsRegistry` installed (every
  counter, histogram, and span actually recording) costs at most **5%**
  more CPU time than with the default no-op registry.  Bare and
  instrumented runs are timed interleaved (process time, which co-tenant
  preemption cannot inflate), each side takes its best-of-2 within an
  iteration, and the overhead is the median per-iteration ratio — so
  machine-load drift cancels instead of deciding the verdict.

* **Determinism** — a metrics-enabled run writing a journal and
  checkpoints produces **byte-identical** durability artifacts to a
  metrics-disabled one on the same seed, and field-identical reports.
  Timing data lives only in the registry; nothing wall-clock ever enters
  journal records, checkpoint envelopes, or replay-verified state.

Runs standalone for CI smoke tests::

    PYTHONPATH=src python benchmarks/bench_observability_overhead.py --quick
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Dict, List

from repro.baselines import RotaAdmission
from repro.faults import (
    FaultPlan,
    RecoveryPolicy,
    diff_fingerprints,
    faulty_scenario,
    report_fingerprint,
)
from repro.observability import MetricsRegistry, use_registry
from repro.system import OpenSystemSimulator, ReservationPolicy
from repro.workloads import volunteer_scenario

RESULTS_PATH = (
    Path(__file__).resolve().parent.parent
    / "BENCH_observability_overhead.json"
)

#: The acceptance bar: a fully-instrumented run may cost at most this
#: fraction of the bare run's wall time.
OVERHEAD_BAR = 0.05

# The E14/E16 fault-recovery workload: faults, violations, recovery
# backoff, and (in the determinism half) journaling and checkpoints —
# every instrumented subsystem exercised in one run.
BASE_PLAN = FaultPlan(
    seed=17, crash_rate=0.02, revocation_rate=0.25, straggler_rate=0.02
)


def make_scenario(*, quick: bool = False):
    if quick:
        # Big enough that one run (~0.2s) dwarfs scheduler jitter, and
        # *dense* — more nodes means more admission math per slice, so
        # the per-slice instrumentation delta is a smaller fraction of
        # the run and the 5% verdict is not decided by noise.
        base = volunteer_scenario(23, nodes=6, horizon=120, session_rate=0.5)
    else:
        base = volunteer_scenario(23, nodes=6, horizon=150, session_rate=0.5)
    return faulty_scenario(base, BASE_PLAN.scaled(1.5))


def make_simulator(scenario) -> OpenSystemSimulator:
    return OpenSystemSimulator(
        RotaAdmission(),
        initial_resources=scenario.initial_resources,
        allocation_policy=ReservationPolicy(),
        recovery=RecoveryPolicy(max_attempts=8),
    )


def _one_run(scenario, **run_kwargs):
    journal = run_kwargs.get("journal")
    if journal is not None:
        Path(journal).unlink(missing_ok=True)
    simulator = make_simulator(scenario)
    simulator.schedule(*scenario.events)
    # CPU time, not wall clock: instrumentation cost is pure CPU work,
    # and process time is blind to co-tenant preemption — on a shared
    # machine wall-clock pairs scatter several percent, which would make
    # a 5% bar a coin flip.
    started = time.process_time()
    report = simulator.run(scenario.horizon, **run_kwargs)
    return time.process_time() - started, report


def bench_overhead(scenario, *, repeats: int = 5) -> Dict[str, object]:
    """Paired bare-vs-instrumented timing, median-of-``repeats`` ratio.

    Each iteration interleaves two bare and two instrumented runs
    (bare, instrumented, bare, instrumented) under the same machine
    conditions and forms one ratio from the per-iteration minima; the
    overhead estimate is the *median* of those per-iteration ratios.
    Contention noise is one-sided — a co-tenant can only ever make a run
    *slower* — so the within-iteration minimum discards contaminated
    samples (both samples of a side must be hit to skew an iteration),
    and the median discards iterations where that still happened.  A
    single best-of-N on each side independently would let one lucky bare
    sample (or one slow stretch) decide the verdict.
    """
    import gc

    bare_best = float("inf")
    instrumented_best = float("inf")
    bare_report = instrumented_report = None
    snapshot = None
    ratios: List[float] = []
    _one_run(scenario)  # warm caches before the first timed sample
    # Collector pauses land on whichever run triggers the threshold —
    # disproportionately the instrumented one, since discarded registries
    # and snapshots feed the heap.  Collect *between* samples and keep
    # automatic collection out of the timed regions.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            iteration_bare = float("inf")
            iteration_instr = float("inf")
            for _ in range(2):
                gc.collect()
                elapsed, bare_report = _one_run(scenario)
                iteration_bare = min(iteration_bare, elapsed)
                registry = MetricsRegistry()
                gc.collect()
                with use_registry(registry):
                    elapsed, instrumented_report = _one_run(scenario)
                iteration_instr = min(iteration_instr, elapsed)
                snapshot = registry.snapshot()
            bare_best = min(bare_best, iteration_bare)
            instrumented_best = min(instrumented_best, iteration_instr)
            ratios.append(iteration_instr / iteration_bare)
    finally:
        if gc_was_enabled:
            gc.enable()

    gaps = diff_fingerprints(
        report_fingerprint(bare_report),
        report_fingerprint(instrumented_report),
    )
    assert not gaps, f"instrumentation altered the run: {gaps}"
    assert instrumented_report.metrics is not None
    assert bare_report.metrics is None

    families = {family["name"] for family in snapshot["metrics"]}
    # The workload must actually exercise the instrumented subsystems,
    # otherwise the overhead number is vacuous.
    for expected in (
        "rota_admission_check_seconds",
        "rota_admission_decisions_total",
        "sim_events_applied_total",
        "sim_phase_seconds",
        "recovery_offers_total",
        "recovery_backoff_delay",
    ):
        assert expected in families, f"workload never touched {expected}"

    ratios.sort()
    overhead = ratios[len(ratios) // 2] - 1.0
    return {
        "bare_s": bare_best,
        "instrumented_s": instrumented_best,
        "overhead_frac": overhead,
        "pair_ratios": [round(r, 5) for r in ratios],
        "metric_families": sorted(families),
        "span_roots": len(snapshot["spans"]),
    }


def bench_determinism(
    scenario, workdir: Path, *, checkpoint_every: int = 5
) -> Dict[str, object]:
    """Byte-compare durability artifacts of disabled vs enabled runs."""
    bare_dir = workdir / "bare"
    instr_dir = workdir / "instrumented"
    bare_dir.mkdir(parents=True, exist_ok=True)
    instr_dir.mkdir(parents=True, exist_ok=True)

    _, bare = _one_run(
        scenario,
        journal=bare_dir / "journal.jsonl",
        checkpoint_every=checkpoint_every,
        checkpoint_dir=bare_dir,
    )
    with use_registry(MetricsRegistry()):
        _, instrumented = _one_run(
            scenario,
            journal=instr_dir / "journal.jsonl",
            checkpoint_every=checkpoint_every,
            checkpoint_dir=instr_dir,
        )

    gaps = diff_fingerprints(
        report_fingerprint(bare), report_fingerprint(instrumented)
    )
    assert not gaps, f"metrics-enabled run diverged: {gaps}"

    bare_files = sorted(p.name for p in bare_dir.iterdir())
    instr_files = sorted(p.name for p in instr_dir.iterdir())
    assert bare_files == instr_files, (
        f"artifact sets differ: {bare_files} vs {instr_files}"
    )
    mismatched = [
        name
        for name in bare_files
        if (bare_dir / name).read_bytes() != (instr_dir / name).read_bytes()
    ]
    assert not mismatched, f"artifacts not byte-identical: {mismatched}"
    return {
        "artifacts_compared": len(bare_files),
        "journal_bytes": (bare_dir / "journal.jsonl").stat().st_size,
        "byte_identical": True,
    }


def run_suite(workdir: Path, *, quick: bool = False) -> Dict[str, object]:
    scenario = make_scenario(quick=quick)
    # The quick workload's ~0.2s runs sit close to scheduler-jitter
    # scale; more interleaved iterations keep the median honest there.
    overhead = bench_overhead(scenario, repeats=7 if quick else 5)
    determinism = bench_determinism(scenario, workdir)
    results = {
        "workload": "E14 fault-recovery (volunteer seed=23, plan seed=17, "
        "intensity 1.5)",
        "quick": quick,
        "overhead_bar": OVERHEAD_BAR,
        "overhead": overhead,
        "determinism": determinism,
    }
    # The bar holds in quick mode too: the instrumented delta is per-slice
    # constant work, so it shrinks, not grows, on the bigger workload.
    assert overhead["overhead_frac"] <= OVERHEAD_BAR, (
        f"instrumentation overhead {overhead['overhead_frac']:.1%} exceeds "
        f"the {OVERHEAD_BAR:.0%} bar: {overhead}"
    )
    return results


def _render(results: Dict[str, object]) -> str:
    overhead = results["overhead"]
    determinism = results["determinism"]
    return "\n".join(
        [
            "E19 — observability overhead and determinism",
            f"  bare           {overhead['bare_s']:.4f}s",
            f"  instrumented   {overhead['instrumented_s']:.4f}s "
            f"({overhead['overhead_frac'] * 100:+.2f}%, bar "
            f"{results['overhead_bar']:.0%})",
            f"  families       {len(overhead['metric_families'])} metric "
            f"families, {overhead['span_roots']} span root(s)",
            f"  artifacts      {determinism['artifacts_compared']} files "
            f"byte-identical={determinism['byte_identical']} "
            f"(journal {determinism['journal_bytes']} bytes)",
        ]
    )


def write_results(results: Dict[str, object]) -> None:
    RESULTS_PATH.write_text(json.dumps(results, indent=2) + "\n")


def test_observability_overhead_within_bar(tmp_path, emit):
    results = run_suite(tmp_path, quick=True)
    emit(_render(results))


def test_metrics_enabled_artifacts_byte_identical(tmp_path):
    scenario = make_scenario(quick=True)
    determinism = bench_determinism(scenario, tmp_path)
    assert determinism["byte_identical"]
    assert determinism["artifacts_compared"] >= 2  # journal + >=1 checkpoint


def main(argv=None) -> int:
    import argparse
    import tempfile

    parser = argparse.ArgumentParser(
        description="observability overhead and determinism (E19)"
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="small workload for CI smoke runs (same 5%% bar)",
    )
    parser.add_argument(
        "--no-write", action="store_true",
        help="skip writing BENCH_observability_overhead.json",
    )
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="bench-obs-") as tmp:
        results = run_suite(Path(tmp), quick=args.quick)
    if not args.no_write:
        write_results(results)
        print(f"wrote {RESULTS_PATH}")
    print(_render(results))
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
