"""CyberOrgs-style resource encapsulations (paper Section VI outlook).

Hierarchical enclaves, each reasoning only over its own resource slice.
"""

from repro.encapsulation.enclave import Enclave, EnclaveError
from repro.encapsulation.lease import Lease, LeaseTable
from repro.encapsulation.search import (
    SearchBudgetError,
    SearchOutcome,
    default_probe_cost,
    search_for_admission,
    value_threshold,
)

__all__ = [
    "Enclave",
    "EnclaveError",
    "Lease",
    "LeaseTable",
    "SearchBudgetError",
    "SearchOutcome",
    "default_probe_cost",
    "search_for_admission",
    "value_threshold",
]
