"""Located resource types (paper Section III).

A resource term's subscript ``xi`` is its *located type*: the kind of
resource together with where it resides.  A CPU resource at location
``l1`` has located type ``<cpu, l1>``; a network resource usable to send
data from ``l1`` to ``l2`` has located type ``<network, l1 -> l2>`` —
the spatial part of a communication resource names both endpoints.

Locations are lightweight value objects:

* :class:`Node` — a named host/site.
* :class:`Link` — a directed pair of nodes.

:class:`LocatedType` combines a resource *kind* (free-form string such as
``"cpu"``, ``"network"``, ``"memory"``) with a location.  Convenience
constructors :func:`cpu`, :func:`network`, :func:`memory` build the common
cases used throughout the paper's examples.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Union

from repro.errors import InvalidTermError


@dataclass(frozen=True)
class Node:
    """A named location (host, cluster, site...)."""

    name: str

    def __post_init__(self) -> None:
        if not self.name:
            raise InvalidTermError("node name must be non-empty")

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Link:
    """A directed communication channel between two locations.

    The paper writes this ``l1 -> l2``; direction matters (bandwidth from
    l1 to l2 is not bandwidth from l2 to l1).
    """

    source: Node
    destination: Node

    def __post_init__(self) -> None:
        if self.source == self.destination:
            raise InvalidTermError(
                f"link endpoints must differ, got {self.source} -> {self.destination}"
            )

    @property
    def reversed(self) -> "Link":
        return Link(self.destination, self.source)

    def __str__(self) -> str:
        return f"{self.source} -> {self.destination}"


Location = Union[Node, Link]


@dataclass(frozen=True)
class LocatedType:
    """A resource kind bound to a location: the paper's ``xi``.

    ``LocatedType`` is a value object usable as a dictionary key; resource
    sets are keyed by it.  Substitutability (the ``xi1 >= xi2`` premise of
    the paper's term-dominance operator) is plain equality here: a resource
    can serve a requirement only if kind and location match exactly.
    Domains with richer substitution rules (e.g. CPU speed classes) can
    subclass and override :meth:`can_serve`.
    """

    kind: str
    location: Location

    def __post_init__(self) -> None:
        if not self.kind:
            raise InvalidTermError("resource kind must be non-empty")

    def can_serve(self, requirement: "LocatedType") -> bool:
        """Whether a resource of this located type can satisfy a
        requirement of located type ``requirement`` (the paper's
        ``xi1 >= xi2``)."""
        return self == requirement

    @property
    def is_communication(self) -> bool:
        """True for link-located (communication) resources."""
        return isinstance(self.location, Link)

    def __str__(self) -> str:
        return f"<{self.kind}, {self.location}>"


# ----------------------------------------------------------------------
# Convenience constructors
# ----------------------------------------------------------------------

def _as_node(value: Union[Node, str]) -> Node:
    return value if isinstance(value, Node) else Node(value)


@lru_cache(maxsize=None)
def _interned(kind: str, location: Location) -> LocatedType:
    """One shared instance per distinct located type: workloads name the
    same few types in every demand and term, and the value objects are
    immutable, so sharing them saves an object pair per mention."""
    return LocatedType(kind, location)


def cpu(location: Union[Node, str]) -> LocatedType:
    """``<cpu, l>`` — processor capacity at a location."""
    return _interned("cpu", _as_node(location))


def memory(location: Union[Node, str]) -> LocatedType:
    """``<memory, l>`` — memory capacity at a location."""
    return _interned("memory", _as_node(location))


def network(source: Union[Node, str], destination: Union[Node, str]) -> LocatedType:
    """``<network, l1 -> l2>`` — directed communication capacity."""
    return _interned("network", Link(_as_node(source), _as_node(destination)))


def located(kind: str, location: Union[Node, str, Link]) -> LocatedType:
    """Generic constructor for any resource kind at a node or link."""
    if isinstance(location, Link):
        return _interned(kind, location)
    return _interned(kind, _as_node(location))
