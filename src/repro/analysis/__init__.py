"""Outcome scoring and table rendering for the synthetic evaluation."""

from repro.analysis.metrics import (
    Confusion,
    PolicyScore,
    completed_demand,
    confusion,
    goodput_quantity,
    score,
)
from repro.analysis.audit import assert_clean, audit_report
from repro.analysis.export import SCORE_FIELDS, scores_to_csv, sweep_to_csv
from repro.analysis.report import POLICY_HEADERS, policy_table, render_table
from repro.analysis.sweep import Sweep, SweepPoint, run_sweep

__all__ = [
    "Confusion",
    "PolicyScore",
    "completed_demand",
    "confusion",
    "goodput_quantity",
    "score",
    "assert_clean",
    "audit_report",
    "SCORE_FIELDS",
    "scores_to_csv",
    "sweep_to_csv",
    "Sweep",
    "SweepPoint",
    "run_sweep",
    "POLICY_HEADERS",
    "policy_table",
    "render_table",
]
