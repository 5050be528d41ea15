"""Seeded synthetic workloads, churn processes, and named scenarios."""

from repro.workloads.churn import broken_promises, churn_events, stable_base
from repro.workloads.generator import (
    OracleInstance,
    oracle_instance,
    poisson_arrivals,
    random_requirement,
)
from repro.workloads.overload import (
    flash_crowd_requests,
    flash_crowd_requirements,
    stalled_enclave_stream,
)
from repro.workloads.partition import mesh_names, partitioned_mesh_stream
from repro.workloads.persistence import (
    event_from_wire,
    event_to_wire,
    load_events,
    save_events,
)
from repro.workloads.scenarios import (
    Scenario,
    cloud_scenario,
    pipeline_scenario,
    volunteer_scenario,
)

__all__ = [
    "broken_promises",
    "churn_events",
    "stable_base",
    "OracleInstance",
    "oracle_instance",
    "poisson_arrivals",
    "random_requirement",
    "event_from_wire",
    "event_to_wire",
    "load_events",
    "save_events",
    "Scenario",
    "cloud_scenario",
    "flash_crowd_requests",
    "flash_crowd_requirements",
    "mesh_names",
    "partitioned_mesh_stream",
    "pipeline_scenario",
    "stalled_enclave_stream",
    "volunteer_scenario",
]
