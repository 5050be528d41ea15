"""E22 — Goodput over an unreliable network: degrade, never break.

The netfaults mesh (:mod:`repro.faults.netfaults`) routes every
cross-enclave interaction — admission verdicts, leased capacity joins,
renewals, migration offers — through a seeded message channel that
delays, loses, duplicates, and partitions.  The claim under test is the
paper's promise discipline surviving the network it never modelled:

* **Zero admitted-promise violations, anywhere** — under every cell
  (perfect link, delay, loss, partition, all at once) no admitted
  computation silently misses; unrenewable leases expire conservatively
  and stranded work goes through the recovery pipeline instead.
* **Extended conservation** — ``offered = consumed + expired + lost +
  shed + lease-expired`` holds per slice inside every run
  (``invariant_interval=1``) and whole-run here.
* **Replay identity** — every cell's seeded mesh, run twice, agrees on
  report *and* wire state (:func:`repro.faults.replay_identity`).
* **Graceful goodput** — degraded cells keep at least
  :data:`GOODPUT_FLOOR` of the perfect-network goodput; the partition
  costs admissions, never promises.
* **Bounded lease-renewal overhead** — the renewal chatter (renew +
  ack messages) stays under :data:`RENEWAL_OVERHEAD_BAR` of all wire
  records; deadline assurance is not bought with a heartbeat storm.

Runs standalone for CI smoke tests::

    PYTHONPATH=src python benchmarks/bench_netfaults.py --quick
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Dict, List

from repro.faults import PartitionPlan, admitted_promise_violations, run_mesh
from repro.faults import replay_identity, report_fingerprint

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_netfaults.json"

SEED = 0

#: Degraded goodput floor, as a fraction of the perfect-network cell.
GOODPUT_FLOOR = 0.8

#: Renewal chatter bound: (lease-renew + lease-ack) / all wire records.
#: The default cadence (ttl 6, renew every 2) lands near 0.54 on this
#: workload; a heartbeat-storm regression (renewing every tick) pushes
#: past 0.7, which is what the bar exists to catch.
RENEWAL_OVERHEAD_BAR = 0.6

#: The sweep: one named cell per fault dimension, then all at once.
CELLS = (
    ("perfect", {"partition_duration": 0, "link_loss": 0.0, "link_delay": 0}),
    ("delay", {"partition_duration": 0, "link_loss": 0.0, "link_delay": 1}),
    ("loss", {"partition_duration": 0, "link_loss": 0.15, "link_delay": 0}),
    ("partition", {"partition_duration": 10, "link_loss": 0.0,
                   "link_delay": 0}),
    ("partition+loss+delay", {"partition_duration": 10, "link_loss": 0.15,
                              "link_delay": 1}),
)
QUICK_CELLS = ("perfect", "partition+loss+delay")


def _plan(**overrides) -> PartitionPlan:
    return dataclasses.replace(PartitionPlan(seed=SEED), **overrides)


def _cell_row(name: str, overrides: Dict[str, object]) -> Dict[str, object]:
    plan = _plan(**overrides)
    (report, policy), diverged = replay_identity(
        lambda: run_mesh(plan), lambda run: report_fingerprint(*run)
    )
    stats = policy.channel.stats
    renewals = stats.by_kind.get("lease-renew", 0) + stats.by_kind.get(
        "lease-ack", 0
    )
    total = sum(stats.by_kind.values())
    gaps = report.trace.conservation_gaps(report.offered)
    return {
        "cell": name,
        "partition_duration": plan.partition_duration,
        "link_loss": plan.link_loss,
        "link_delay": plan.link_delay,
        "arrivals": report.arrivals,
        "admitted": report.admitted,
        "goodput": report.completed,
        "recovered": report.recovered,
        "abandoned": report.abandoned,
        "violations": admitted_promise_violations(report),
        "lease_expirations": len(policy.leases.expired()),
        "rpc_failures": policy.rpc_failures,
        "joins_shed": policy.joins_shed,
        "network_delay_charged": float(policy.network_delay_charged),
        "messages": total,
        "messages_lost": stats.lost + stats.severed,
        "renewal_messages": renewals,
        "renewal_overhead": renewals / total if total else 0.0,
        "conservation_gaps": gaps,
        "identical": not diverged,
    }


def run_suite(*, quick: bool = False) -> Dict[str, object]:
    chosen = [
        (name, overrides)
        for name, overrides in CELLS
        if not quick or name in QUICK_CELLS
    ]
    rows = [_cell_row(name, overrides) for name, overrides in chosen]
    results: Dict[str, object] = {
        "experiment": "unreliable-network mesh sweep (netfaults)",
        "seed": SEED,
        "goodput_floor": GOODPUT_FLOOR,
        "renewal_overhead_bar": RENEWAL_OVERHEAD_BAR,
        "quick": quick,
        "rows": rows,
    }
    results["verdicts"] = _verdicts(rows)
    return results


def _verdicts(rows: List[Dict[str, object]]) -> Dict[str, bool]:
    perfect = next(row for row in rows if row["cell"] == "perfect")
    partitions = [row for row in rows if row["partition_duration"]]
    return {
        "zero_admitted_violations": all(not row["violations"] for row in rows),
        "conservation_holds": all(
            not row["conservation_gaps"] for row in rows
        ),
        "replay_identical": all(row["identical"] for row in rows),
        "goodput_floor_held": all(
            row["goodput"] >= GOODPUT_FLOOR * perfect["goodput"]
            for row in rows
        ),
        "lease_expiry_exercised": all(
            row["lease_expirations"] >= 1 for row in partitions
        ),
        "renewal_overhead_bounded": all(
            row["renewal_overhead"] <= RENEWAL_OVERHEAD_BAR for row in rows
        ),
    }


def assert_verdicts(results: Dict[str, object]) -> None:
    verdicts = results["verdicts"]
    failed = sorted(name for name, ok in verdicts.items() if not ok)
    assert not failed, f"netfault verdicts failed: {', '.join(failed)}"


def _render(results: Dict[str, object]) -> str:
    lines = [
        f"unreliable-network mesh sweep (seed={results['seed']}):",
        "  cell                   arr  adm  good  rec  abn  leases-exp"
        "  rpc-fail  renew%  identical",
    ]
    for row in results["rows"]:
        lines.append(
            f"  {row['cell']:<21}  "
            f"{row['arrivals']:>3}  "
            f"{row['admitted']:>3}  "
            f"{row['goodput']:>4}  "
            f"{row['recovered']:>3}  "
            f"{row['abandoned']:>3}  "
            f"{row['lease_expirations']:>10}  "
            f"{row['rpc_failures']:>8}  "
            f"{100 * row['renewal_overhead']:>5.1f}  "
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

def test_netfault_sweep_verdicts(emit):
    results = run_suite(quick=True)
    assert_verdicts(results)
    emit(_render(results))


def test_partition_costs_admissions_never_promises():
    """The partition cell loses goodput relative to perfect, but every
    shortfall is an honest rejection or a recovered/abandoned record —
    never a silent miss."""
    perfect = _cell_row("perfect", dict(CELLS[0][1]))
    partition = _cell_row("partition", dict(CELLS[3][1]))
    assert partition["goodput"] <= perfect["goodput"]
    assert not partition["violations"]
    assert partition["lease_expirations"] >= 1


def test_bench_partition_mesh(benchmark):
    benchmark(lambda: run_mesh(_plan(partition_duration=10, link_loss=0.15)))


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="goodput over an unreliable network (E22)"
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="run only the perfect and everything-at-once cells",
    )
    parser.add_argument(
        "--no-write", action="store_true",
        help="skip writing BENCH_netfaults.json",
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
