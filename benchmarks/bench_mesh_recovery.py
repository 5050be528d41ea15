"""E23 — What journaling the wire costs, and what a mesh crash costs to undo.

E16 (``bench_checkpoint_recovery.py``) priced durability for the
closed-world policies; this experiment prices it for the *networked*
mesh, where the write-ahead journal additionally pins every wire
outcome (RPC verdicts, lease grants/renewals/expiries)
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

Both legs are E16's (``bench_checkpoint_recovery.py``), called on
``partial(run_mesh, plan)``; the mesh policy's fingerprint fields put
the network digest into every identity check, and the JSON rows share
E16's schema.

Runs standalone for CI smoke tests::

    PYTHONPATH=src python benchmarks/bench_mesh_recovery.py --quick
"""

from __future__ import annotations

import functools
import json
from pathlib import Path
from typing import Dict

from repro.faults import PartitionPlan, run_mesh

try:
    from benchmarks import bench_checkpoint_recovery as e16
except ModuleNotFoundError:  # run as a script: benchmarks/ is sys.path[0]
    import bench_checkpoint_recovery as e16

RESULTS_PATH = (
    Path(__file__).resolve().parent.parent / "BENCH_mesh_recovery.json"
)

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


def run_suite(workdir: Path, *, quick: bool = False) -> Dict[str, object]:
    run = functools.partial(run_mesh, make_plan(quick=quick))
    overhead = e16.bench_overhead(
        run, workdir / "overhead", repeats=2 if quick else 3,
        checkpoint_every=CHECKPOINT_EVERY,
    )
    recovery = e16.bench_recovery(
        run, workdir / "recovery", checkpoint_every=CHECKPOINT_EVERY
    )
    verdicts = {
        "journal_overhead_within_1_5x":
            overhead["journal_overhead_frac"] <= 0.5,
        "wire_records_journaled": overhead["wire_records"] > 0,
        **{
            f"resume_{int(row['crash_fraction'] * 100):02d}_identical":
                row["identical"]
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
        assert overhead["checkpoint_overhead_frac"] <= 1.5, overhead
        assert all(verdicts.values()), verdicts
    return results


def write_results(results: Dict[str, object]) -> None:
    RESULTS_PATH.write_text(json.dumps(results, indent=2) + "\n")


def test_wire_journal_identity_and_overhead(tmp_path, emit):
    run = functools.partial(run_mesh, make_plan(quick=True))
    overhead = e16.bench_overhead(
        run, tmp_path, repeats=1, checkpoint_every=CHECKPOINT_EVERY
    )
    # Identity (report + network digest) is asserted inside
    # bench_overhead; the strict 1.5x bar is enforced by the full run in
    # main() — quick CI boxes are too noisy for tight wall-clock bars.
    assert overhead["journal_records"] > 0
    assert overhead["wire_records"] > 0
    emit(
        f"quick wire-journal overhead "
        f"{overhead['journal_overhead_frac'] * 100:+.1f}% over "
        f"{overhead['wire_records']} wire records"
    )


def test_crash_fraction_resume_identity(tmp_path):
    rows = e16.bench_recovery(
        functools.partial(run_mesh, make_plan(quick=True)),
        tmp_path,
        checkpoint_every=CHECKPOINT_EVERY,
    )
    assert len(rows) == len(e16.CRASH_FRACTIONS)
    for row in rows:
        assert row["identical"]


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
    print(e16.render(
        "E23 — wire-journal overhead and mesh crash recovery", results
    ))
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
