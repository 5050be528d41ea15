"""E16 — What durability costs and what a crash costs to undo.

E14 (``bench_fault_recovery.py``) established how much deadline assurance
the recovery pipeline buys back when promises break.  This experiment
prices the machinery that makes those runs *survivable*: the write-ahead
journal and periodic checkpoints of :mod:`repro.system.checkpoint`.

Two questions, answered on the E14 fault-recovery workload:

* **Overhead** — how much slower is the identical simulation when every
  applied event and admission decision is journaled before taking effect,
  when periodic snapshots are written without a journal, and when both
  are?  The four legs alternate within each repeat and an overhead is
  the median of the per-repeat ratios to the plain leg.  The
  acceptance bars are journaling overhead <= 25% and checkpointing
  overhead <= 150% of the plain runtime (the incremental delta
  checkpoints of :class:`~repro.system.checkpoint.DeltaSnapshotter`
  brought this down from ~370%); the report asserts both in full mode
  and records the measured fractions either way, along with how many
  snapshots were full anchors vs deltas.  Identity is asserted
  unconditionally: the journaled and checkpointed runs must
  fingerprint-match the plain one field for field.

* **Recovery** — when the process dies at 25% / 50% / 75% of its journal,
  how long does restore-plus-replay take, and how many pinned records
  does the resumed run re-verify?  Each resumed report must again be
  identical to the uninterrupted run.

Both legs take one seeded run as ``run(**durability) -> (report,
policy)`` and compare runs with ``report_fingerprint(report, policy)``,
so E23 (``bench_mesh_recovery.py``) calls them on the mesh and both
files share one row schema.

Runs standalone for CI smoke tests::

    PYTHONPATH=src python benchmarks/bench_checkpoint_recovery.py --quick
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from pathlib import Path
from typing import Dict, List

from repro.baselines import RotaAdmission
from repro.faults import (
    FaultPlan,
    RecoveryPolicy,
    SimulatedCrash,
    crashing_opener,
    diff_fingerprints,
    faulty_scenario,
    report_fingerprint,
)
from repro.faults.chaos import scenario_run
from repro.system import OpenSystemSimulator, ReservationPolicy
from repro.system.checkpoint import Journal, SimulatorCheckpoint
from repro.workloads import volunteer_scenario

RESULTS_PATH = (
    Path(__file__).resolve().parent.parent / "BENCH_checkpoint_recovery.json"
)

# The E14 fault-recovery workload: same plan, same seeds, same patience.
BASE_PLAN = FaultPlan(
    seed=17, crash_rate=0.02, revocation_rate=0.25, straggler_rate=0.02
)
CRASH_FRACTIONS = (0.25, 0.5, 0.75)


def make_scenario(*, quick: bool = False):
    if quick:
        base = volunteer_scenario(23, nodes=4, horizon=80, session_rate=0.5)
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


def make_run(*, quick: bool = False):
    """The workload as ``run(**durability) -> (report, policy)``."""
    scenario = make_scenario(quick=quick)
    return scenario_run(scenario, functools.partial(make_simulator, scenario))


def bench_overhead(
    run, workdir: Path, *, repeats: int = 3, checkpoint_every: int = 5
) -> Dict[str, float]:
    """Wall time of one ``run(**durability) -> (report, policy)`` plain,
    journaled, checkpointed without a journal, and journaled and
    checkpointed.

    Each repeat runs the four legs back to back, so every durable leg is
    set against a plain run made seconds before it; an overhead is the
    median of those per-repeat ratios, and a leg's time the median of
    its repeats.  ``run()`` starts each leg fresh: it truncates the
    journal and clears the checkpoints.  One untimed plain run first
    pays the warm-up."""
    jdir = workdir / "journal-only"
    odir = workdir / "checkpoint-only"
    cdir = workdir / "checkpointed"
    for directory in (jdir, odir, cdir):
        directory.mkdir(parents=True, exist_ok=True)
    legs = {
        "plain": {},
        "journaled": {"journal": jdir / "journal.jsonl"},
        "checkpoint_only": {
            "checkpoint_every": checkpoint_every, "checkpoint_dir": odir,
        },
        "checkpointed": {
            "journal": cdir / "journal.jsonl",
            "checkpoint_every": checkpoint_every,
            "checkpoint_dir": cdir,
        },
    }
    run()
    times: Dict[str, List[float]] = {name: [] for name in legs}
    outcomes = {}
    for _ in range(repeats):
        for name, durability in legs.items():
            started = time.perf_counter()
            outcomes[name] = run(**durability)
            times[name].append(time.perf_counter() - started)
    truth = report_fingerprint(*outcomes["plain"])
    for name in ("journaled", "checkpoint_only", "checkpointed"):
        gaps = diff_fingerprints(truth, report_fingerprint(*outcomes[name]))
        assert not gaps, f"{name} durability altered the run: {gaps}"

    def overhead(name: str) -> float:
        return statistics.median(
            leg / plain - 1 for leg, plain in zip(times[name], times["plain"])
        )

    records, _ = Journal.scan(jdir / "journal.jsonl")
    kinds = [
        SimulatorCheckpoint.load(path).kind
        for path in sorted(cdir.glob("ckpt-*.json"))
    ]
    return {
        "plain_s": statistics.median(times["plain"]),
        "journaled_s": statistics.median(times["journaled"]),
        "checkpoint_only_s": statistics.median(times["checkpoint_only"]),
        "checkpointed_s": statistics.median(times["checkpointed"]),
        "repeats": repeats,
        "journal_records": len(records),
        "wire_records": sum(r.get("type") == "wire" for r in records),
        "checkpoint_every": checkpoint_every,
        "checkpoints_full": kinds.count("full"),
        "checkpoints_delta": kinds.count("delta"),
        "journal_overhead_frac": overhead("journaled"),
        "checkpoint_only_overhead_frac": overhead("checkpoint_only"),
        "checkpoint_overhead_frac": overhead("checkpointed"),
    }


def bench_recovery(
    run,
    workdir: Path,
    *,
    fractions=CRASH_FRACTIONS,
    checkpoint_every: int = 5,
) -> List[Dict[str, object]]:
    """Kill the journaled run at fractions of its WAL; time the resume.

    Each resume is the one resume call; its fingerprint covers the
    report and the restored policy's own state (a mesh's wire)."""
    durable = functools.partial(run, checkpoint_every=checkpoint_every)
    basedir = workdir / "recovery-baseline"
    basedir.mkdir(parents=True, exist_ok=True)
    truth = report_fingerprint(*durable(
        checkpoint_dir=basedir, journal=basedir / "journal.jsonl"
    ))
    records, _ = Journal.scan(basedir / "journal.jsonl")
    total = len(records)

    rows = []
    for fraction in fractions:
        crash_at = max(2, round(fraction * total))
        pointdir = workdir / f"crash-{int(fraction * 100):02d}"
        pointdir.mkdir(parents=True, exist_ok=True)
        journal_path = pointdir / "journal.jsonl"
        journal = Journal(
            journal_path, opener=crashing_opener(crash_at_write=crash_at)
        )
        try:
            durable(checkpoint_dir=pointdir, journal=journal)
            raise AssertionError(
                f"run survived its crash budget ({crash_at}/{total} writes)"
            )
        except SimulatedCrash:
            pass
        finally:
            journal.close()

        started = time.perf_counter()
        resumed = OpenSystemSimulator.resume(pointdir, journal_path)
        replayed = len(resumed._replay_records)
        report = resumed.resume_run()
        resume_s = time.perf_counter() - started
        gaps = diff_fingerprints(
            truth, report_fingerprint(report, resumed.admission_policy)
        )
        rows.append(
            {
                "crash_fraction": fraction,
                "crash_at_write": crash_at,
                "journal_records_total": total,
                "resumed_from": report.resumed_from,
                "replayed_records": replayed,
                "resume_s": resume_s,
                "identical": not gaps,
            }
        )
        assert not gaps, f"resume at {fraction} diverged: {gaps}"
    return rows


def run_suite(workdir: Path, *, quick: bool = False) -> Dict[str, object]:
    run = make_run(quick=quick)
    overhead = bench_overhead(
        run, workdir / "overhead", repeats=5 if quick else 7
    )
    recovery = bench_recovery(run, workdir / "recovery")
    results = {
        "workload": "E14 fault-recovery (volunteer seed=23, plan seed=17, "
        "intensity 1.5)",
        "quick": quick,
        "overhead": overhead,
        "recovery": recovery,
    }
    if not quick:
        # Acceptance: write-ahead journaling costs at most a quarter of
        # the simulation itself, and periodic checkpointing at most 1.5x
        # of it, on the reference workload.  The checkpointed run must
        # actually exercise the incremental path (deltas present).
        assert overhead["journal_overhead_frac"] <= 0.25, overhead
        assert overhead["checkpoint_overhead_frac"] <= 1.5, overhead
        assert overhead["checkpoints_delta"] > 0, overhead
    return results


def render(title: str, results: Dict[str, object]) -> str:
    """The overhead and recovery legs' table (E16's and E23's)."""
    overhead = results["overhead"]
    lines = [
        title,
        f"  plain          {overhead['plain_s']:.4f}s",
        f"  journaled      {overhead['journaled_s']:.4f}s "
        f"({overhead['journal_overhead_frac'] * 100:+.1f}%, "
        f"{overhead['wire_records']}/{overhead['journal_records']} "
        "wire/WAL records)",
        f"  ckpt only      {overhead['checkpoint_only_s']:.4f}s "
        f"({overhead['checkpoint_only_overhead_frac'] * 100:+.1f}%)",
        f"  checkpointed   {overhead['checkpointed_s']:.4f}s "
        f"({overhead['checkpoint_overhead_frac'] * 100:+.1f}%, "
        f"{overhead['checkpoints_full']} full / "
        f"{overhead['checkpoints_delta']} delta snapshots at "
        f"every={overhead['checkpoint_every']})",
    ]
    for row in results["recovery"]:
        lines.append(
            f"  crash@{int(row['crash_fraction'] * 100):2d}%      "
            f"resume={row['resume_s']:.4f}s from {row['resumed_from']} "
            f"replayed={row['replayed_records']}/"
            f"{row['journal_records_total']} records "
            f"identical={row['identical']}"
        )
    return "\n".join(lines)


def write_results(results: Dict[str, object]) -> None:
    RESULTS_PATH.write_text(json.dumps(results, indent=2) + "\n")


def test_durability_identity_and_overhead(tmp_path, emit):
    run = make_run(quick=True)
    overhead = bench_overhead(run, tmp_path, repeats=1)
    # Identity is asserted inside bench_overhead; here only sanity-check
    # that the workload journals something and timing stayed plausible.
    # (The strict <= 25% bar is enforced by the full run in main(); quick
    # CI boxes are too noisy for tight wall-clock assertions.)
    assert overhead["journal_records"] > 0
    assert overhead["journal_overhead_frac"] < 2.0
    # The checkpointed leg must exercise the incremental path: at least
    # one full anchor and at least one delta against it.
    assert overhead["checkpoints_full"] > 0
    assert overhead["checkpoints_delta"] > 0
    emit(
        f"quick journal overhead "
        f"{overhead['journal_overhead_frac'] * 100:.1f}% over "
        f"{overhead['journal_records']} records"
    )


def test_crash_fraction_resume_identity(tmp_path):
    rows = bench_recovery(make_run(quick=True), tmp_path)
    assert len(rows) == len(CRASH_FRACTIONS)
    for row in rows:
        assert row["identical"]
        assert row["replayed_records"] <= row["journal_records_total"]


def main(argv=None) -> int:
    import argparse
    import tempfile

    parser = argparse.ArgumentParser(
        description="durability overhead and crash-recovery timing (E16)"
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="small workload for CI smoke runs (skips the 25%% bar)",
    )
    parser.add_argument(
        "--no-write", action="store_true",
        help="skip writing BENCH_checkpoint_recovery.json",
    )
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="bench-ckpt-") as tmp:
        results = run_suite(Path(tmp), quick=args.quick)
    if not args.no_write:
        write_results(results)
        print(f"wrote {RESULTS_PATH}")
    print(render("E16 — durability overhead and crash recovery", results))
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
