"""Unit tests for promise leases and the lease table.

The lease discipline backs cross-enclave capacity grants in the
unreliable-network experiments: expiry is modelled behaviour (the holder
conservatively renounces), :class:`~repro.errors.LeaseError` is misuse
of the machinery itself.
"""

from __future__ import annotations

import pytest

from repro.encapsulation.lease import Lease, LeaseTable
from repro.errors import LeaseError
from repro.intervals import Interval
from repro.resources import ResourceSet, cpu, term


def make_lease(lease_id="l1", granted_at=2, ttl=4, renew_every=1, **kwargs):
    defaults = dict(
        lease_id=lease_id,
        grantor="n0",
        holder="n1",
        resources=ResourceSet.of(term(2, cpu("n1"), 2, 20)),
        granted_at=granted_at,
        expires_at=granted_at + ttl,
        ttl=ttl,
        renew_every=renew_every,
    )
    defaults.update(kwargs)
    return Lease(**defaults)


class TestLease:
    @pytest.mark.parametrize("kwargs", [
        {"ttl": 0},
        {"renew_every": 0},
        {"expires_at": 2},  # == granted_at
    ])
    def test_invalid_leases_rejected(self, kwargs):
        with pytest.raises(LeaseError):
            make_lease(**kwargs)

    def test_next_renew_defaults_to_one_period_after_grant(self):
        assert make_lease(granted_at=2, renew_every=1).next_renew_at == 3

    def test_active_window(self):
        lease = make_lease(granted_at=2, ttl=4)
        assert lease.active(2)
        assert lease.active(5)
        assert not lease.active(6)  # expiry instant itself

    def test_renewal_cycle_extends_expiry(self):
        lease = make_lease(granted_at=2, ttl=4, renew_every=1)
        assert lease.due_for_renewal(3)
        lease.mark_renewal_sent(3)
        assert not lease.due_for_renewal(3)  # no re-send inside a period
        assert lease.next_renew_at == 4
        lease.renew(acked_at=3)
        assert lease.expires_at == 7
        assert lease.renewals == 1

    def test_renewal_never_shrinks_expiry(self):
        lease = make_lease(granted_at=2, ttl=10)  # expires at 12
        lease.renew(acked_at=3)  # 3 + 10 > 12: extend to 13
        assert lease.expires_at == 13
        lease.renew(acked_at=2)  # 2 + 10 < 13: keep the later expiry
        assert lease.expires_at == 13

    def test_late_ack_cannot_revive_an_expired_lease(self):
        lease = make_lease(expired_at=6)
        assert lease.expired
        assert not lease.active(5)
        assert not lease.due_for_renewal(10)
        with pytest.raises(LeaseError, match="late ack"):
            lease.renew(acked_at=7)

    def test_remaining_is_the_future_portion(self):
        lease = make_lease()  # rate 2 over [2, 20)
        remaining = lease.remaining(10)
        (ltype,) = remaining.located_types
        assert remaining.quantity(ltype, Interval(0, 20)) == 20  # 2 * 10

    def test_attach_deduplicates_dependents(self):
        lease = make_lease()
        lease.attach("job")
        lease.attach("job")
        lease.attach("other")
        assert lease.dependents == ("job", "other")


class TestLeaseTable:
    def test_grant_get_contains_len(self):
        table = LeaseTable()
        lease = table.grant(make_lease())
        assert table.get("l1") is lease
        assert "l1" in table and "l2" not in table
        assert len(table) == 1

    def test_duplicate_grant_rejected(self):
        table = LeaseTable()
        table.grant(make_lease())
        with pytest.raises(LeaseError, match="duplicate"):
            table.grant(make_lease())

    def test_unknown_id_rejected(self):
        with pytest.raises(LeaseError, match="unknown"):
            LeaseTable().get("ghost")

    def test_filters(self):
        table = LeaseTable()
        live = table.grant(make_lease("live", granted_at=2, ttl=10))
        dead = table.grant(make_lease("dead", granted_at=2, ttl=4))
        dead.expired_at = 6
        assert table.active(7) == [live]
        assert table.expired() == [dead]
        assert table.due_renewals(3) == [live]  # expired never renews

    def test_expire_due_marks_in_grant_order_once(self):
        table = LeaseTable()
        table.grant(make_lease("a", granted_at=0, ttl=4))
        table.grant(make_lease("b", granted_at=0, ttl=3))
        lapsed = table.expire_due(5)
        assert [l.lease_id for l in lapsed] == ["a", "b"]
        assert all(l.expired_at == 5 for l in lapsed)
        assert table.expire_due(6) == []  # idempotent

    def test_renewal_that_beat_the_lapse_wins(self):
        table = LeaseTable()
        lease = table.grant(make_lease(granted_at=0, ttl=4))
        lease.renew(acked_at=3)  # extends to 7 before the expiry check
        assert table.expire_due(4) == []
        assert not lease.expired

    def test_state_snapshot_roundtrip_preserves_clocks(self):
        """The checkpoint's network section carries the table through a
        crash: grant/renewal clocks, expiry marks, and dependents all
        survive, and the restored copies are isolated from the source."""
        table = LeaseTable()
        live = table.grant(make_lease("live", granted_at=2, ttl=10))
        live.renew(acked_at=5)
        live.attach("job")
        dead = table.grant(make_lease("dead", granted_at=2, ttl=4))
        dead.expired_at = 6
        dead.failed_renewals = 3

        twin = LeaseTable()
        twin.restore_state(table.state_snapshot())
        restored = twin.get("live")
        assert restored is not live  # deep copy, not aliasing
        assert restored.expires_at == live.expires_at
        assert restored.renewals == 1
        assert restored.next_renew_at == live.next_renew_at
        assert restored.dependents == ("job",)
        assert twin.get("dead").expired
        assert twin.get("dead").failed_renewals == 3
        # mutating the restored table never leaks back
        restored.renew(acked_at=8)
        assert live.renewals == 1
