"""Scoring simulation outcomes.

Metrics used across the synthetic evaluation:

* **admission precision** — of the computations a policy admitted, the
  fraction whose deadline actually held when executed.  ROTA's soundness
  claim is precision = 1.
* **goodput** — total demanded quantity of computations that completed on
  time, normalised by offered capacity: how much *useful, assured* work
  the system delivered.
* **admission rate / miss rate** — volume knobs that distinguish timid
  from reckless policies.
* **confusion vs a reference** — given a reference policy's per-arrival
  outcomes on the same event stream (typically ROTA, or an exhaustive
  oracle), per-arrival agreement buckets.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.system.simulator import SimulationReport


@dataclass(frozen=True)
class PolicyScore:
    """One row of the policy-comparison table."""

    policy: str
    arrivals: int
    admitted: int
    completed: int
    missed: int
    rejected: int
    precision: float
    admission_rate: float
    miss_rate: float
    goodput: float
    utilization: float


def score(report: SimulationReport) -> PolicyScore:
    """Collapse one simulation report into a score row."""
    offered = sum(report.offered.values())
    completed_work = sum(
        record.total_demands.total
        for record in report.records
        if record.completed
    )
    return PolicyScore(
        policy=report.policy_name,
        arrivals=report.arrivals,
        admitted=report.admitted,
        completed=report.completed,
        missed=report.missed,
        rejected=report.rejected,
        precision=report.admission_precision,
        admission_rate=report.admitted / report.arrivals if report.arrivals else 1.0,
        miss_rate=report.missed / report.admitted if report.admitted else 0.0,
        goodput=float(completed_work / offered) if offered else 0.0,
        utilization=report.utilization,
    )


@dataclass(frozen=True)
class Confusion:
    """Per-arrival agreement between a policy and a reference."""

    both_admit: int
    only_policy: int
    only_reference: int
    both_reject: int

    @property
    def total(self) -> int:
        return self.both_admit + self.only_policy + self.only_reference + self.both_reject

    @property
    def agreement(self) -> float:
        return (self.both_admit + self.both_reject) / self.total if self.total else 1.0


def confusion(
    report: SimulationReport, reference: SimulationReport
) -> Confusion:
    """Compare two reports over the same event stream, by arrival label."""
    ref = {record.label: record.admitted for record in reference.records}
    both_admit = only_policy = only_reference = both_reject = 0
    for record in report.records:
        reference_admitted = ref.get(record.label, False)
        if record.admitted and reference_admitted:
            both_admit += 1
        elif record.admitted:
            only_policy += 1
        elif reference_admitted:
            only_reference += 1
        else:
            both_reject += 1
    return Confusion(both_admit, only_policy, only_reference, both_reject)
