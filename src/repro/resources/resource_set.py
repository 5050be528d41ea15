"""Resource sets: collections of resource terms (paper Section III).

A distributed system's resources are a set of resource terms.  Terms of
the same located type with overlapping intervals *simplify* — their rates
add over the overlap — so the canonical form of a resource set is one
:class:`~repro.resources.profile.RateProfile` per located type.
:class:`ResourceSet` maintains exactly that, while still exposing the
paper's term-level view through :meth:`terms`.

Operations follow Section III:

* **union** (``|``) models resources joining the system; overlapping
  same-type terms aggregate (simplification).
* **relative complement** (``-``) models resources being claimed or
  leaving; it is *partial* — defined only when the minuend dominates the
  subtrahend, since resource terms cannot be negative.
* ``U_s^d Theta`` — :meth:`restrict` — the resources existing within a
  window, used by the satisfaction function ``f``.

Instances are immutable; no operation changes a set in place.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Dict, Iterable, Iterator, KeysView, Mapping

from repro.errors import UndefinedOperationError
from repro.intervals.interval import Interval, Time
from repro.resources.located_type import LocatedType
from repro.resources.profile import RateProfile
from repro.resources.term import ResourceTerm


class ResourceSet:
    """An immutable set of resource terms in canonical (simplified) form."""

    #: ``_capacities`` holds the last :meth:`capacities` window and its
    #: map; it is unset until the first read and never pickled.
    __slots__ = ("_profiles", "_capacities")

    def __init__(self, terms: Iterable[ResourceTerm] = ()) -> None:
        # Group segments per located type and aggregate each group with a
        # single k-way breakpoint merge (RateProfile.from_segments) instead
        # of quadratic repeated addition over the term list.
        segments: Dict[LocatedType, list] = {}
        for item in terms:
            if item.is_null:
                continue
            segments.setdefault(item.ltype, []).append(item.segment)
        profiles: Dict[LocatedType, RateProfile] = {}
        for ltype, group in segments.items():
            profile = RateProfile.from_segments(group)
            if not profile.is_zero:
                profiles[ltype] = profile
        self._profiles = profiles

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def empty(cls) -> "ResourceSet":
        return _EMPTY

    @classmethod
    def from_profiles(cls, profiles: Mapping[LocatedType, RateProfile]) -> "ResourceSet":
        """Build directly from per-type profiles (canonical form)."""
        instance = cls.__new__(cls)
        instance._profiles = {
            lt: p for lt, p in profiles.items() if not p.is_zero
        }
        return instance

    @classmethod
    def of(cls, *terms: ResourceTerm) -> "ResourceSet":
        """Variadic convenience constructor."""
        return cls(terms)

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def located_types(self) -> tuple[LocatedType, ...]:
        """Located types with any resource in the set (stable order)."""
        return tuple(self._profiles)

    @property
    def provided_types(self) -> KeysView[LocatedType]:
        """The located types with any resource in the set, as a read-only
        view: a membership test without building a collection (the
        Theorem-1 screen asks one per demanded type)."""
        return self._profiles.keys()

    def profile(self, ltype: LocatedType) -> RateProfile:
        """The aggregated rate profile of one located type."""
        return self._profiles.get(ltype, RateProfile.zero())

    def profiles(self) -> Mapping[LocatedType, RateProfile]:
        """Read-only mapping of all per-type profiles."""
        return dict(self._profiles)

    def terms(self) -> tuple[ResourceTerm, ...]:
        """The canonical simplified term list: one term per maximal
        constant-rate segment of each located type."""
        out: list[ResourceTerm] = []
        for ltype, prof in self._profiles.items():
            for window, rate in prof.segments():
                out.append(ResourceTerm(rate, ltype, window))
        return tuple(out)

    @property
    def is_empty(self) -> bool:
        return not self._profiles

    @property
    def horizon(self) -> Time:
        """Latest breakpoint across all types (when everything has
        expired or settled to a constant)."""
        return max((p.horizon for p in self._profiles.values()), default=0)

    # ------------------------------------------------------------------
    # Quantity queries (the paper's f-function primitives)
    # ------------------------------------------------------------------
    def quantity(self, ltype: LocatedType, window: Interval) -> Time:
        """Total quantity of ``ltype`` available during ``window``."""
        return self.profile(ltype).integral(window)

    def capacities(self, window: Interval) -> Mapping[LocatedType, Time]:
        """``{lt: self.quantity(lt, window)}`` over :attr:`located_types`,
        read-only, built once per window.

        The slice loop's allocation policy and ``step`` both read the
        slice's capacity; the map of the last window read is kept.  Its
        key holds the endpoints' types as well as their values:
        ``Interval(1, 2) == Interval(1.0, 2.0)``, but an integral's type
        follows the window's.
        """
        start, end = window.start, window.end
        key = (start, end, start.__class__, end.__class__)
        try:
            cached_key, cached = self._capacities
            if cached_key == key:
                return cached
        except AttributeError:
            pass
        cached = MappingProxyType(
            {lt: p.integral(window) for lt, p in self._profiles.items()}
        )
        self._capacities = (key, cached)
        return cached

    def rate_at(self, ltype: LocatedType, t: Time) -> Time:
        """Instantaneous rate of ``ltype`` at time ``t``."""
        return self.profile(ltype).rate_at(t)

    def can_supply(self, amounts: Mapping[LocatedType, Time], window: Interval) -> bool:
        """Whether, for every located type, the quantity available during
        ``window`` covers the demanded amount: ``U_s^d Theta >= Phi``."""
        return all(
            self.quantity(ltype, window) >= amount
            for ltype, amount in amounts.items()
        )

    def restrict(self, window: Interval) -> "ResourceSet":
        """``U_s^d Theta``: the resources existing within ``window``."""
        return ResourceSet.from_profiles(
            {lt: p.clamp(window) for lt, p in self._profiles.items()}
        )

    def truncate_before(self, t: Time) -> "ResourceSet":
        """Drop everything before time ``t`` (resources in the past have
        expired; used when advancing system state).  Resources only
        diminish, so each exact profile loses a prefix
        (:meth:`RateProfile.truncate_before`); a set with nothing before
        ``t`` is returned as it is."""
        cut = {}
        moved = False
        for lt, p in self._profiles.items():
            kept = cut[lt] = p.truncate_before(t)
            moved = moved or kept is not p
        return ResourceSet.from_profiles(cut) if moved else self

    # ------------------------------------------------------------------
    # Algebra
    # ------------------------------------------------------------------
    def union(self, other: "ResourceSet") -> "ResourceSet":
        """Resources joining: simplification aggregates overlapping terms."""
        merged = dict(self._profiles)
        for ltype, prof in other._profiles.items():
            merged[ltype] = merged.get(ltype, RateProfile.zero()) + prof
        return ResourceSet.from_profiles(merged)

    def dominates(self, other: "ResourceSet") -> bool:
        """Pointwise coverage: every type's rate is >= the other's at all
        times.  This is the domain of the relative complement."""
        return all(
            self.profile(ltype).dominates(prof)
            for ltype, prof in other._profiles.items()
        )

    def minus(self, other: "ResourceSet") -> "ResourceSet":
        """Relative complement ``Theta1 \\ Theta2``.

        Per the paper, defined only when every subtrahend term is dominated
        by available resources; otherwise raises
        :class:`UndefinedOperationError` (terms cannot go negative).

        Domination is not pre-checked: ``subtract`` already detects the
        first rate that would go negative, so a separate ``dominates``
        pass would merge every profile pair twice.  This is the dominant
        cost of admission control's per-request slack recomputation.
        """
        out = dict(self._profiles)
        for ltype, prof in other._profiles.items():
            try:
                out[ltype] = out.get(ltype, RateProfile.zero()).subtract(prof)
            except UndefinedOperationError as exc:
                raise UndefinedOperationError(
                    "relative complement undefined: subtrahend not dominated"
                ) from exc
        return ResourceSet.from_profiles(out)

    def saturating_minus(self, other: "ResourceSet") -> "ResourceSet":
        """Total subtraction clamped at zero, per located type.

        Models *revocation*: capacity disappearing even where commitments
        were made against it.  The paper's model forbids this (leave times
        are pre-declared); the robustness experiments use it to measure
        what the pre-declaration assumption is worth.
        """
        out = dict(self._profiles)
        for ltype, prof in other._profiles.items():
            if ltype in out:
                out[ltype] = out[ltype].saturating_sub(prof)
        return ResourceSet.from_profiles(out)

    def __or__(self, other: "ResourceSet") -> "ResourceSet":
        return self.union(other)

    def __sub__(self, other: "ResourceSet") -> "ResourceSet":
        return self.minus(other)

    # ------------------------------------------------------------------
    # Dunder plumbing
    # ------------------------------------------------------------------
    def __getstate__(self) -> tuple:
        # The default slots state minus the capacity cache, so a set
        # pickles to the same bytes whether or not a map was read.
        return None, {"_profiles": self._profiles}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ResourceSet):
            return NotImplemented
        return self._profiles == other._profiles

    def __hash__(self) -> int:
        return hash(frozenset(self._profiles.items()))

    def __iter__(self) -> Iterator[ResourceTerm]:
        return iter(self.terms())

    def __len__(self) -> int:
        return len(self.terms())

    def __bool__(self) -> bool:
        return not self.is_empty

    def __repr__(self) -> str:
        inner = ", ".join(str(t) for t in self.terms())
        return f"ResourceSet({{{inner}}})"


_EMPTY = ResourceSet(())


def resources(*terms: ResourceTerm) -> ResourceSet:
    """Convenience factory mirroring the paper's set-brace notation."""
    return ResourceSet(terms)
