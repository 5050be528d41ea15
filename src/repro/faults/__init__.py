"""Fault injection and promise-violation recovery.

The paper's open-system model is cooperatively dynamic: "if a resource is
going to leave the system in the future, the time of leaving must be
explicitly specified at the time of joining", so every admission promise
is sound by construction.  This package deliberately breaks that
assumption — crashes, unannounced revocations, stragglers — and gives the
simulator the machinery to *survive* the breakage:

* :class:`FaultPlan` — seeded, deterministic generation of unannounced
  fault events, composable with any existing scenario
  (:func:`faulty_scenario`).
* :func:`find_victims` / :class:`PromiseViolation` — detection of admitted
  computations whose remaining feasible window died.
* :class:`RecoveryPolicy` — the victim pipeline: re-admission against
  surviving resources through the same Theorem-4 check, capped
  exponential backoff between offers, and graceful degradation into an
  explicit ``abandoned`` outcome with salvage accounting.
"""

from repro.baselines.retry import ExponentialBackoff
from repro.faults.chaos import (
    ChaosResult,
    CrashingFile,
    CrashPoint,
    MatrixResult,
    SimulatedCrash,
    chaos_crash_matrix,
    crashing_opener,
    diff_fingerprints,
    replay_identity,
    report_fingerprint,
)
from repro.faults.detection import Victim, find_victims, residual_requirement
from repro.faults.netfaults import (
    MeshPolicy,
    NetfaultPoint,
    PartitionPlan,
    admitted_promise_violations,
    chaos_partition_crash_matrix,
    chaos_partition_matrix,
    mesh_events,
    mesh_fingerprint,
    network_digest,
    resume_mesh,
    run_mesh,
)
from repro.faults.overload import (
    OverloadPlan,
    OverloadPoint,
    chaos_overload_matrix,
    serve_fingerprint,
)
from repro.faults.plan import FaultPlan, faulty_scenario
from repro.faults.recovery import RecoveryPolicy
from repro.system.tracing import PromiseViolation, ResourceLoss

__all__ = [
    "ChaosResult",
    "CrashingFile",
    "CrashPoint",
    "ExponentialBackoff",
    "FaultPlan",
    "MatrixResult",
    "MeshPolicy",
    "NetfaultPoint",
    "OverloadPlan",
    "OverloadPoint",
    "PartitionPlan",
    "SimulatedCrash",
    "admitted_promise_violations",
    "chaos_crash_matrix",
    "chaos_overload_matrix",
    "chaos_partition_crash_matrix",
    "chaos_partition_matrix",
    "crashing_opener",
    "diff_fingerprints",
    "faulty_scenario",
    "find_victims",
    "mesh_events",
    "mesh_fingerprint",
    "network_digest",
    "resume_mesh",
    "replay_identity",
    "run_mesh",
    "report_fingerprint",
    "residual_requirement",
    "serve_fingerprint",
    "PromiseViolation",
    "RecoveryPolicy",
    "ResourceLoss",
    "Victim",
]
