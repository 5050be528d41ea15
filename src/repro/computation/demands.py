"""Immutable demand maps: located type -> required quantity.

The paper's cost function ``Phi`` returns "a set of resource amounts",
each written ``{q}_xi``.  :class:`Demands` is that set as a value object:
an immutable mapping from :class:`~repro.resources.located_type.LocatedType`
to a non-negative quantity, with the arithmetic requirement composition
needs (merge by addition, scaling, subtraction with floor at zero).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Tuple, Union

from repro.errors import InvalidComputationError
from repro.intervals.interval import Time
from repro.resources.located_type import LocatedType

DemandsLike = Union["Demands", Mapping[LocatedType, Time], Iterable[Tuple[LocatedType, Time]]]


class Demands(Mapping[LocatedType, Time]):
    """An immutable ``{q1}_xi1, {q2}_xi2, ...`` amount set.

    Zero-quantity entries are dropped on construction so that equality
    means "same effective demand".
    """

    __slots__ = ("_items", "_hash")

    def __init__(self, items: DemandsLike = ()) -> None:
        if isinstance(items, Demands):
            # Already validated: copy its map without checking it again.
            # A copy, not the map itself: two demands sharing one dict
            # would pickle it once where they meet in one snapshot.
            self._items: dict[LocatedType, Time] = dict(items._items)
            self._hash: int | None = None
            return
        pairs: Iterable[Tuple[LocatedType, Time]] = (
            items.items() if isinstance(items, Mapping) else items
        )
        merged: dict[LocatedType, Time] = {}
        for ltype, quantity in pairs:
            if not isinstance(ltype, LocatedType):
                raise InvalidComputationError(
                    f"demand key must be a LocatedType, got {ltype!r}"
                )
            if quantity < 0:
                raise InvalidComputationError(
                    f"demand quantity must be >= 0, got {quantity!r} for {ltype}"
                )
            if quantity == 0:
                continue
            merged[ltype] = merged.get(ltype, 0) + quantity
        self._items = merged
        self._hash = None

    # ------------------------------------------------------------------
    # Mapping protocol
    # ------------------------------------------------------------------
    def __getitem__(self, key: LocatedType) -> Time:
        return self._items[key]

    def __iter__(self) -> Iterator[LocatedType]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def get(self, key: LocatedType, default: Time = 0) -> Time:  # type: ignore[override]
        return self._items.get(key, default)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def is_empty(self) -> bool:
        return not self._items

    @property
    def is_single_type(self) -> bool:
        """Whether the demand involves exactly one located type.

        The paper notes that consecutive actions demanding one and the
        same single resource type need not be split into separate
        subcomputations; this predicate drives that phase merging.
        """
        return len(self._items) == 1

    @property
    def total(self) -> Time:
        """Sum of quantities across all types (the single-count view used
        by the BMCL/TRL-style baseline)."""
        return sum(self._items.values())

    def located_types(self) -> tuple[LocatedType, ...]:
        return tuple(self._items)

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def merge(self, other: DemandsLike) -> "Demands":
        """Pointwise sum of two demand maps."""
        other = Demands(other)
        combined = dict(self._items)
        for ltype, quantity in other.items():
            combined[ltype] = combined.get(ltype, 0) + quantity
        return Demands(combined)

    def scale(self, factor: Time) -> "Demands":
        if factor < 0:
            raise InvalidComputationError("scale factor must be >= 0")
        return Demands({lt: q * factor for lt, q in self._items.items()})

    def saturating_sub(self, other: DemandsLike) -> "Demands":
        """Pointwise ``max(0, self - other)`` — demand remaining after some
        consumption.  Over-supply of one type never creates credit."""
        other = Demands(other)
        return Demands(
            {lt: max(0, q - other.get(lt, 0)) for lt, q in self._items.items()}
        )

    def __add__(self, other: DemandsLike) -> "Demands":
        return self.merge(other)

    # ------------------------------------------------------------------
    # Value semantics
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if isinstance(other, Demands):
            return self._items == other._items
        if isinstance(other, Mapping):
            return self._items == {k: v for k, v in other.items() if v != 0}
        return NotImplemented

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._items.items()))
        return self._hash

    def __repr__(self) -> str:
        inner = ", ".join(f"{{{q}}}_{lt}" for lt, q in self._items.items())
        return f"Demands({inner})"


#: The empty demand.
NO_DEMAND = Demands()
