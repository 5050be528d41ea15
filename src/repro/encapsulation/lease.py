"""Promise leases: cross-enclave capacity grants with an expiry.

When capacity crosses an enclave boundary (a parent pledging a top-up to
a child, see :mod:`repro.faults.netfaults`), the receiving enclave holds
it under a *lease*: a grant with a ttl that must be renewed over the
message channel before it lapses.  Admissions scheduled against leased
capacity carry the lease — their promise is only as durable as the
pledge backing it.

The lease discipline is the timeout construct of Misra & Roy's
timeout-extended LTL made operational: an enclave cut off by a partition
cannot distinguish "my grantor is slow" from "my grant was re-pledged
elsewhere", so at expiry it *conservatively renounces* the leased
capacity — evicting dependents through the ordinary promise-violation
recovery pipeline — rather than keeping a promise it can no longer
justify.  Expiry is therefore modelled behaviour, never an error;
:class:`~repro.errors.LeaseError` marks misuse of the machinery itself.

Everything here is pure bookkeeping on the virtual clock: no randomness,
no wall clock, insertion-ordered iteration only — the tables are carried
inside pickled policies and replayed runs must walk them identically.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import LeaseError
from repro.intervals.interval import Time
from repro.markers import checkpointable
from repro.resources.resource_set import ResourceSet


@dataclass
class Lease:
    """One cross-enclave capacity pledge and its renewal state."""

    lease_id: str
    grantor: str
    holder: str
    resources: ResourceSet
    granted_at: Time
    #: instant the pledge lapses unless a renewal ack lands first
    expires_at: Time
    ttl: Time
    renew_every: Time
    #: next instant the holder owes the grantor a renewal request
    next_renew_at: Time = 0
    renewals: int = 0
    #: renewal requests sent that never produced an ack (lost/severed)
    failed_renewals: int = 0
    #: admission labels whose schedules ride on this grant
    dependents: Tuple[str, ...] = ()
    expired_at: Optional[Time] = None

    def __post_init__(self) -> None:
        if self.ttl <= 0:
            raise LeaseError(
                f"lease {self.lease_id!r}: ttl must be > 0, got {self.ttl!r}"
            )
        if self.renew_every <= 0:
            raise LeaseError(
                f"lease {self.lease_id!r}: renew_every must be > 0, "
                f"got {self.renew_every!r}"
            )
        if self.expires_at <= self.granted_at:
            raise LeaseError(
                f"lease {self.lease_id!r}: expires_at {self.expires_at!r} "
                f"must follow granted_at {self.granted_at!r}"
            )
        if not self.next_renew_at:
            self.next_renew_at = self.granted_at + self.renew_every

    # ------------------------------------------------------------------
    @property
    def expired(self) -> bool:
        return self.expired_at is not None

    def active(self, now: Time) -> bool:
        return not self.expired and now < self.expires_at

    def due_for_renewal(self, now: Time) -> bool:
        return not self.expired and now >= self.next_renew_at

    def remaining(self, now: Time) -> ResourceSet:
        """The still-trusted future portion of the pledge at ``now``."""
        return self.resources.truncate_before(now)

    # ------------------------------------------------------------------
    def mark_renewal_sent(self, now: Time) -> None:
        """A renewal request left for the grantor; don't re-send until
        the next renewal period even if no ack ever returns."""
        self.next_renew_at = now + self.renew_every

    def renew(self, acked_at: Time) -> None:
        """A renewal ack landed: the pledge holds for another ttl."""
        if self.expired:
            raise LeaseError(
                f"lease {self.lease_id!r} already expired at "
                f"{self.expired_at!r}; a late ack cannot revive it"
            )
        self.renewals += 1
        if acked_at + self.ttl > self.expires_at:
            self.expires_at = acked_at + self.ttl

    def attach(self, label: str) -> None:
        if label not in self.dependents:
            self.dependents = self.dependents + (label,)


@checkpointable
class LeaseTable:
    """Insertion-ordered registry of leases held by (or granted to) one
    side of an enclave boundary."""

    def __init__(self) -> None:
        self._leases: Dict[str, Lease] = {}

    # ------------------------------------------------------------------
    def grant(self, lease: Lease) -> Lease:
        if lease.lease_id in self._leases:
            raise LeaseError(f"duplicate lease id {lease.lease_id!r}")
        self._leases[lease.lease_id] = lease
        return lease

    def get(self, lease_id: str) -> Lease:
        try:
            return self._leases[lease_id]
        except KeyError:
            raise LeaseError(f"unknown lease id {lease_id!r}") from None

    def __contains__(self, lease_id: str) -> bool:
        return lease_id in self._leases

    def __len__(self) -> int:
        return len(self._leases)

    # ------------------------------------------------------------------
    def active(self, now: Time) -> List[Lease]:
        return [l for l in self._leases.values() if l.active(now)]

    def expired(self) -> List[Lease]:
        return [l for l in self._leases.values() if l.expired]

    def due_renewals(self, now: Time) -> List[Lease]:
        """Leases owing the grantor a renewal request at ``now``."""
        return [
            l for l in self._leases.values() if l.due_for_renewal(now)
        ]

    def expire_due(self, now: Time) -> List[Lease]:
        """Mark every lapsed lease expired; returns them in grant order.

        Expiry is checked *after* the caller delivered any due acks, so a
        renewal that crossed the wire in time always wins over the lapse
        it was racing.
        """
        lapsed: List[Lease] = []
        for lease in self._leases.values():
            if not lease.expired and now >= lease.expires_at:
                lease.expired_at = now
                lapsed.append(lease)
        return lapsed

    # ------------------------------------------------------------------
    def state_snapshot(self) -> Tuple[Lease, ...]:
        """Grant-ordered copies of every lease, isolated from future
        renewals/expiries — the checkpoint's view of the grant and
        renewal clocks (``expires_at``, ``next_renew_at``,
        ``expired_at``) at one instant."""
        return tuple(replace(lease) for lease in self._leases.values())

    def restore_state(self, leases: Iterable[Lease]) -> None:
        """Reinstate a :meth:`state_snapshot`, preserving grant order."""
        self._leases = {
            lease.lease_id: replace(lease) for lease in leases
        }
