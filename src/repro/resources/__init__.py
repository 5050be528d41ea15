"""Resource representation substrate (paper Section III).

Located types, resource terms ``[r]_{xi}^{tau}``, canonical rate profiles,
and resource sets with the paper's union/simplification and partial
relative-complement operations.
"""

from repro.resources.located_type import (
    Link,
    LocatedType,
    Location,
    Node,
    cpu,
    located,
    memory,
    network,
)
from repro.resources.profile import (
    EPSILON,
    RateProfile,
    is_exact,
)
from repro.resources.resource_set import ResourceSet, resources
from repro.resources.term import ResourceTerm, term

__all__ = [
    "Link",
    "LocatedType",
    "Location",
    "Node",
    "cpu",
    "located",
    "memory",
    "network",
    "EPSILON",
    "RateProfile",
    "is_exact",
    "ResourceSet",
    "resources",
    "ResourceTerm",
    "term",
]
