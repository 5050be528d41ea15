"""Outcome scoring and table rendering for the synthetic evaluation."""

from repro.analysis.metrics import (
    Confusion,
    PolicyScore,
    confusion,
    score,
)
from repro.analysis.audit import assert_clean, audit_report
from repro.analysis.report import POLICY_HEADERS, policy_table, render_table
from repro.analysis.sweep import Sweep, SweepPoint, run_sweep

__all__ = [
    "Confusion",
    "PolicyScore",
    "confusion",
    "score",
    "assert_clean",
    "audit_report",
    "Sweep",
    "SweepPoint",
    "run_sweep",
    "POLICY_HEADERS",
    "policy_table",
    "render_table",
]
