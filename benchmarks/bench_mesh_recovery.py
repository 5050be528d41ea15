"""E23 — What journaling the wire costs, and what a mesh crash costs to undo.

E16 (``bench_checkpoint_recovery.py``) priced durability for the
closed-world policies; this experiment prices it for the *networked*
mesh, where the write-ahead journal additionally pins every wire
outcome (RPC verdicts, lease grants/renewals/expiries, duplicate drops)
and every checkpoint carries the channel's in-flight queue, stats, and
lease clocks in its ``network`` section.

Two questions, on a partitioned lossy-jittery mesh:

* **Overhead** — how much slower is the identical mesh run when the wire
  is write-ahead-logged (and, separately, when periodic network-section
  checkpoints are written too)?  The acceptance bar is journaled runtime
  <= 1.5x the plain runtime; the checkpointed ratio is recorded
  alongside (and sanity-bounded) but the cadence knob owns that
  trade-off.  Identity is asserted unconditionally: journaled and
  checkpointed runs must match the plain run's report fingerprint *and*
  network digest.

* **Recovery** — when the process dies at 25% / 50% / 75% of its wire
  WAL, how long does restore-plus-replay take, and does the resumed run
  reproduce the uninterrupted run field-for-field and draw-for-draw
  (fingerprint + network digest parity)?

Runs standalone for CI smoke tests::

    PYTHONPATH=src python benchmarks/bench_mesh_recovery.py --quick
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Dict, List

from repro.faults import (
    PartitionPlan,
    SimulatedCrash,
    crashing_opener,
    diff_fingerprints,
    network_digest,
    report_fingerprint,
    resume_mesh,
    run_mesh,
)
from repro.system.checkpoint import Journal

RESULTS_PATH = (
    Path(__file__).resolve().parent.parent / "BENCH_mesh_recovery.json"
)

CRASH_FRACTIONS = (0.25, 0.5, 0.75)
CHECKPOINT_EVERY = 25  # the CLI's default cadence


def make_plan(*, quick: bool = False) -> PartitionPlan:
    if quick:
        return PartitionPlan(
            seed=7, horizon=40, partition_start=12, partition_duration=10,
            link_delay=1, link_loss=0.1,
        )
    return PartitionPlan(
        seed=7, horizon=160, children=3, partition_start=40,
        partition_duration=24, link_delay=1, link_jitter=2, link_loss=0.1,
    )


def _timed_run(plan, repeats: int, workdir: Path = None, *,
               checkpoint_every: int = CHECKPOINT_EVERY):
    """Best-of-``repeats`` wall time plus the last run's report/policy."""
    best = float("inf")
    report = policy = None
    for _ in range(repeats):
        kwargs: dict = {}
        if workdir is not None:
            kwargs = {
                "checkpoint_every": checkpoint_every,
                "checkpoint_dir": workdir,
                "journal": workdir / "journal.jsonl",
            }
        started = time.perf_counter()
        report, policy = run_mesh(plan, **kwargs)
        best = min(best, time.perf_counter() - started)
    return best, report, policy


def bench_overhead(
    plan, workdir: Path, *, repeats: int = 3
) -> Dict[str, float]:
    """Plain vs wire-journaled vs journaled+checkpointed wall time."""
    plain_s, plain, plain_policy = _timed_run(plan, repeats)
    truth_fp = report_fingerprint(plain)
    truth_digest = network_digest(plain_policy)

    jdir = workdir / "journal-only"
    journal_s, journaled, journaled_policy = _timed_run(
        plan, repeats, jdir, checkpoint_every=0
    )
    gaps = diff_fingerprints(truth_fp, report_fingerprint(journaled))
    assert not gaps, f"journaling the wire altered the run: {gaps}"
    assert network_digest(journaled_policy) == truth_digest

    cdir = workdir / "checkpointed"
    checkpoint_s, checkpointed, checkpointed_policy = _timed_run(
        plan, repeats, cdir
    )
    gaps = diff_fingerprints(truth_fp, report_fingerprint(checkpointed))
    assert not gaps, f"checkpointing the wire altered the run: {gaps}"
    assert network_digest(checkpointed_policy) == truth_digest

    records, _ = Journal.scan(jdir / "journal.jsonl")
    wire_records = sum(1 for r in records if r.get("type") == "wire")
    return {
        "plain_s": plain_s,
        "journaled_s": journal_s,
        "checkpointed_s": checkpoint_s,
        "journal_records": len(records),
        "wire_records": wire_records,
        "journal_ratio": journal_s / plain_s,
        "checkpoint_ratio": checkpoint_s / plain_s,
    }


def bench_recovery(
    plan, workdir: Path, *, fractions=CRASH_FRACTIONS
) -> List[Dict[str, float]]:
    """Kill the journaled mesh at fractions of its WAL; time the resume."""
    basedir = workdir / "recovery-baseline"
    _, baseline, baseline_policy = _timed_run(plan, 1, basedir)
    truth_fp = report_fingerprint(baseline)
    truth_digest = network_digest(baseline_policy)
    records, _ = Journal.scan(basedir / "journal.jsonl")
    total = len(records)

    rows = []
    for fraction in fractions:
        crash_at = max(2, round(fraction * total))
        pointdir = workdir / f"crash-{int(fraction * 100):02d}"
        pointdir.mkdir(parents=True, exist_ok=True)
        journal = Journal(
            pointdir / "journal.jsonl",
            opener=crashing_opener(crash_at_write=crash_at),
        )
        try:
            run_mesh(
                plan,
                checkpoint_every=CHECKPOINT_EVERY,
                checkpoint_dir=pointdir,
                journal=journal,
            )
            raise AssertionError(
                f"run survived its crash budget ({crash_at}/{total} writes)"
            )
        except SimulatedCrash:
            pass
        finally:
            journal.close()

        started = time.perf_counter()
        resumed_report, resumed_policy = resume_mesh(pointdir)
        resume_s = time.perf_counter() - started
        gaps = diff_fingerprints(truth_fp, report_fingerprint(resumed_report))
        rows.append(
            {
                "crash_fraction": fraction,
                "crash_at_write": crash_at,
                "journal_records_total": total,
                "resumed_from": resumed_report.resumed_from,
                "resume_s": resume_s,
                "identical": not gaps,
                "network_identical":
                    network_digest(resumed_policy) == truth_digest,
            }
        )
        assert not gaps, f"resume at {fraction} diverged: {gaps}"
        assert rows[-1]["network_identical"], (
            f"resume at {fraction} re-drew the wire"
        )
    return rows


def run_suite(workdir: Path, *, quick: bool = False) -> Dict[str, object]:
    plan = make_plan(quick=quick)
    overhead = bench_overhead(
        plan, workdir / "overhead", repeats=2 if quick else 3
    )
    recovery = bench_recovery(plan, workdir / "recovery")
    verdicts = {
        "journal_overhead_within_1_5x": overhead["journal_ratio"] <= 1.5,
        "wire_records_journaled": overhead["wire_records"] > 0,
        **{
            f"resume_{int(row['crash_fraction'] * 100):02d}_identical":
                bool(row["identical"] and row["network_identical"])
            for row in recovery
        },
    }
    results = {
        "workload": (
            "partitioned lossy mesh (plan seed=7, loss=0.1, delay=1"
            + ("" if quick else ", jitter=2, children=3")
            + ")"
        ),
        "quick": quick,
        "overhead": overhead,
        "recovery": recovery,
        "verdicts": verdicts,
    }
    if not quick:
        # Acceptance: write-ahead-logging the wire costs at most half
        # again the plain runtime; the checkpointed ratio is cadence-
        # bound, so only sanity-bounded here.
        assert verdicts["journal_overhead_within_1_5x"], overhead
        assert overhead["checkpoint_ratio"] <= 2.5, overhead
        assert all(verdicts.values()), verdicts
    return results


def _render(results: Dict[str, object]) -> str:
    overhead = results["overhead"]
    lines = [
        "E23 — wire-journal overhead and mesh crash recovery",
        f"  plain          {overhead['plain_s']:.4f}s",
        f"  journaled      {overhead['journaled_s']:.4f}s "
        f"({overhead['journal_ratio']:.2f}x, "
        f"{overhead['wire_records']}/{overhead['journal_records']} "
        "wire/WAL records)",
        f"  checkpointed   {overhead['checkpointed_s']:.4f}s "
        f"({overhead['checkpoint_ratio']:.2f}x at "
        f"every={CHECKPOINT_EVERY})",
    ]
    for row in results["recovery"]:
        lines.append(
            f"  crash@{int(row['crash_fraction'] * 100):2d}%      "
            f"resume={row['resume_s']:.4f}s from {row['resumed_from']} "
            f"identical={row['identical']} "
            f"wire={row['network_identical']}"
        )
    return "\n".join(lines)


def write_results(results: Dict[str, object]) -> None:
    RESULTS_PATH.write_text(json.dumps(results, indent=2) + "\n")


def test_wire_journal_identity_and_overhead(tmp_path, emit):
    plan = make_plan(quick=True)
    overhead = bench_overhead(plan, tmp_path, repeats=1)
    # Identity (report + network digest) is asserted inside
    # bench_overhead; the strict 1.5x bar is enforced by the full run in
    # main() — quick CI boxes are too noisy for tight wall-clock bars.
    assert overhead["journal_records"] > 0
    assert overhead["wire_records"] > 0
    emit(
        f"quick wire-journal ratio {overhead['journal_ratio']:.2f}x over "
        f"{overhead['wire_records']} wire records"
    )


def test_crash_fraction_resume_identity(tmp_path):
    plan = make_plan(quick=True)
    rows = bench_recovery(plan, tmp_path)
    assert len(rows) == len(CRASH_FRACTIONS)
    for row in rows:
        assert row["identical"] and row["network_identical"]


def main(argv=None) -> int:
    import argparse
    import tempfile

    parser = argparse.ArgumentParser(
        description="wire-journal overhead and mesh crash recovery (E23)"
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="small workload for CI smoke runs (skips the 1.5x bar)",
    )
    parser.add_argument(
        "--no-write", action="store_true",
        help="skip writing BENCH_mesh_recovery.json",
    )
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="bench-mesh-") as tmp:
        results = run_suite(Path(tmp), quick=args.quick)
    if not args.no_write:
        write_results(results)
        print(f"wrote {RESULTS_PATH}")
    print(_render(results))
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
