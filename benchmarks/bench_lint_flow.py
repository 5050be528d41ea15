"""E25 — Whole-program flow analysis stays cheap enough to gate CI.

``repro-lint flow`` (:mod:`repro.analysis.flow`) parses every source,
builds the interprocedural call graph, and runs the taint (direct
zero-hop sources and transitive chains alike), checkpoint-coverage, and
escape analyses.  CI gates every push on it, so the whole
pipeline must stay comfortably inside a fixed wall-clock budget as the
codebase grows — an analysis too slow to gate is an analysis nobody
runs.  The claims under test:

* **Budget held** — the slowest full-repo run stays under
  :data:`BUDGET_SECONDS` (10 s, deliberately loose against CI-runner
  noise; the current cost is well under a tenth of it).
* **Flow-clean tree** — the analysis of ``src/repro`` returns zero
  findings (the gate CI enforces, measured here so the benchmark fails
  loudly before CI does).
* **Non-trivial graph** — the call graph actually resolved a
  substantial program (guards against a silent resolution regression
  making the timing vacuous).

Runs standalone for CI smoke tests::

    PYTHONPATH=src python benchmarks/bench_lint_flow.py --quick
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Dict, List

from repro.analysis.flow import FlowAnalyzer, build_program

_REPO_ROOT = Path(__file__).resolve().parent.parent
RESULTS_PATH = _REPO_ROOT / "BENCH_lint_flow.json"
TARGET = _REPO_ROOT / "src" / "repro"

#: Hard wall-clock ceiling for one full-repo analysis.
BUDGET_SECONDS = 10.0

#: Full-mode repetitions (quick mode runs one).
REPETITIONS = 3

#: Minimum resolved call edges for the timing to be meaningful.
MIN_CALL_EDGES = 500


def _one_run() -> Dict[str, object]:
    started = time.perf_counter()
    program = build_program([TARGET])
    graph_seconds = time.perf_counter() - started
    started = time.perf_counter()
    result = FlowAnalyzer().check_paths([TARGET])
    total_seconds = time.perf_counter() - started
    return {
        "graph_seconds": round(graph_seconds, 4),
        "total_seconds": round(total_seconds, 4),
        "files_checked": result.files_checked,
        "findings": len(result.findings),
        "functions": result.stats["functions"],
        "call_edges": result.stats["call_edges"],
        "checkpointable_classes": result.stats["checkpointable_classes"],
    }


def run_suite(*, quick: bool = False) -> Dict[str, object]:
    rows = [_one_run() for _ in range(1 if quick else REPETITIONS)]
    results: Dict[str, object] = {
        "experiment": "whole-program flow analysis wall-clock (lint flow)",
        "budget_seconds": BUDGET_SECONDS,
        "min_call_edges": MIN_CALL_EDGES,
        "quick": quick,
        "rows": rows,
    }
    results["verdicts"] = _verdicts(rows)
    return results


def _verdicts(rows: List[Dict[str, object]]) -> Dict[str, bool]:
    return {
        "budget_held": all(
            row["total_seconds"] <= BUDGET_SECONDS for row in rows
        ),
        "flow_clean": all(row["findings"] == 0 for row in rows),
        "graph_nontrivial": all(
            row["call_edges"] >= MIN_CALL_EDGES for row in rows
        ),
        "coverage_classes_present": all(
            row["checkpointable_classes"] >= 4 for row in rows
        ),
    }


def assert_verdicts(results: Dict[str, object]) -> None:
    verdicts = results["verdicts"]
    failed = sorted(name for name, ok in verdicts.items() if not ok)
    assert not failed, f"lint-flow verdicts failed: {', '.join(failed)}"


def _render(results: Dict[str, object]) -> str:
    lines = [
        f"whole-program flow analysis (budget {results['budget_seconds']}s):",
        "  run  graph(s)  total(s)  files  functions  edges  findings",
    ]
    for index, row in enumerate(results["rows"], start=1):
        lines.append(
            f"  {index:>3}  "
            f"{row['graph_seconds']:>8.3f}  "
            f"{row['total_seconds']:>8.3f}  "
            f"{row['files_checked']:>5}  "
            f"{row['functions']:>9}  "
            f"{row['call_edges']:>5}  "
            f"{row['findings']:>8}"
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

def test_flow_analysis_budget_verdicts(emit):
    results = run_suite(quick=True)
    assert_verdicts(results)
    emit(_render(results))


def test_bench_flow_analysis(benchmark):
    benchmark(lambda: FlowAnalyzer().check_paths([TARGET]))


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="whole-program flow analysis wall-clock budget (E25)"
    )
    parser.add_argument(
        "--quick", action="store_true", help="run a single repetition"
    )
    parser.add_argument(
        "--no-write", action="store_true",
        help="skip writing BENCH_lint_flow.json",
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
