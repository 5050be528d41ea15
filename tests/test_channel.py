"""Unit tests for the deterministic message channel.

Structure follows the module: link/partition/network value objects and
their seeded stateless draws, then single-message send fates, delivery
ordering, and the closed-form request/verdict RPC.
"""

from __future__ import annotations

import pytest

from repro.backoff import Backoff
from repro.errors import ChannelError
from repro.system.channel import (
    LinkConfig,
    MessageChannel,
    NetworkModel,
    PartitionSpan,
)


def lossy_backoff():
    return Backoff(base=1, factor=2.0, cap=8, jitter=0.0, seed=0)


# ----------------------------------------------------------------------
# Value objects
# ----------------------------------------------------------------------

class TestLinkConfig:
    def test_defaults_are_a_perfect_link(self):
        assert LinkConfig().is_perfect

    @pytest.mark.parametrize("kwargs", [
        {"delay": -1},
        {"delay": 1.5},
        {"jitter": -2},
        {"loss": 1.5},
        {"loss": -0.1},
        {"duplicate": 2.0},
        {"delay": True},
        {"loss": "0.1"},
    ])
    def test_invalid_links_rejected(self, kwargs):
        with pytest.raises(ChannelError):
            LinkConfig(**kwargs)

    def test_any_imperfection_clears_is_perfect(self):
        assert not LinkConfig(delay=1).is_perfect
        assert not LinkConfig(jitter=1).is_perfect
        assert not LinkConfig(loss=0.1).is_perfect
        assert not LinkConfig(duplicate=0.1).is_perfect


class TestPartitionSpan:
    def test_empty_window_rejected(self):
        with pytest.raises(ChannelError, match="non-empty"):
            PartitionSpan(start=5, end=5, severed=(("a", "b"),))

    def test_no_links_rejected(self):
        with pytest.raises(ChannelError, match="at least one link"):
            PartitionSpan(start=0, end=5, severed=())

    @pytest.mark.parametrize("start, end", [
        (float("nan"), 5),
        (0, float("nan")),
        (float("-inf"), 5),
        (0, float("inf")),
        (True, 5),
        ("0", 5),
    ])
    def test_non_finite_window_rejected(self, start, end):
        with pytest.raises(ChannelError, match="finite"):
            PartitionSpan(start=start, end=end, severed=(("a", "b"),))

    @pytest.mark.parametrize("severed", [
        ("ab",),
        (("a",),),
        (("a", "b", "c"),),
        (("a", 1),),
        (["a", "b"],),
    ])
    def test_severed_entries_must_be_pairs_of_names(self, severed):
        with pytest.raises(ChannelError, match="pairs of two endpoint names"):
            PartitionSpan(start=0, end=5, severed=severed)

    def test_cuts_is_symmetric_and_half_open(self):
        span = PartitionSpan(start=5, end=10, severed=(("a", "b"),))
        assert span.cuts("a", "b", 5)
        assert span.cuts("b", "a", 9)  # undirected
        assert not span.cuts("a", "b", 4)
        assert not span.cuts("a", "b", 10)  # [start, end)
        assert not span.cuts("a", "c", 7)

    def test_severed_at_a_resume_boundary_matches_fresh(self):
        """The half-open [start, end) window is a pure function of the
        query instant, so a run resumed exactly at the partition start,
        at end-1, or at end answers identically to a fresh run — no
        off-by-one at a crash boundary, including through a pickled
        (checkpointed) model."""
        import pickle

        span = PartitionSpan(start=18, end=28, severed=(("door", "n1"),))
        model = NetworkModel(partitions=(span,))
        restored = pickle.loads(pickle.dumps(model))
        for at, expect in ((17, False), (18, True), (27, True), (28, False)):
            assert model.severed("door", "n1", at) is expect
            assert restored.severed("door", "n1", at) is expect


class TestNetworkModel:
    @pytest.mark.parametrize("kwargs, match", [
        ({"seed": True}, "seed"),
        ({"seed": "7"}, "seed"),
        ({"seed": -1}, "seed"),
        ({"default": {"delay": 1}}, "default"),
        ({"links": (("a", "b"),)}, "links"),
        ({"links": ((("a", "b"), {"delay": 1}),)}, "links"),
        ({"links": ((("a",), LinkConfig()),)}, "links"),
        ({"links": (((1, 2), LinkConfig()),)}, "links"),
    ])
    def test_invalid_models_rejected(self, kwargs, match):
        with pytest.raises(ChannelError, match=match):
            NetworkModel(**kwargs)

    def test_link_override_matches_either_direction(self):
        fast = LinkConfig(delay=0)
        slow = LinkConfig(delay=7)
        model = NetworkModel(default=fast, links=((("a", "b"), slow),))
        assert model.link("a", "b") is slow
        assert model.link("b", "a") is slow
        assert model.link("a", "c") is fast

    def test_is_perfect_accounts_for_partitions_and_links(self):
        assert NetworkModel().is_perfect
        span = PartitionSpan(start=0, end=1, severed=(("a", "b"),))
        assert not NetworkModel(partitions=(span,)).is_perfect
        assert not NetworkModel(
            links=((("a", "b"), LinkConfig(delay=1)),)
        ).is_perfect

    def test_draws_are_stateless_functions_of_seed_and_key(self):
        config = LinkConfig(delay=1, jitter=3, loss=0.5)
        first = NetworkModel(seed=7, default=config)
        second = NetworkModel(seed=7, default=config)
        ids = [f"m{i}" for i in range(32)]
        assert [first.delay_of("a", "b", m) for m in ids] == [
            second.delay_of("a", "b", m) for m in ids
        ]
        assert [first.lost("a", "b", m) for m in ids] == [
            second.lost("a", "b", m) for m in ids
        ]

    def test_different_seeds_draw_different_fates(self):
        config = LinkConfig(loss=0.5)
        low = NetworkModel(seed=0, default=config)
        high = NetworkModel(seed=1, default=config)
        ids = [f"m{i}" for i in range(32)]
        assert [low.lost("a", "b", m) for m in ids] != [
            high.lost("a", "b", m) for m in ids
        ]

    def test_loss_extremes_are_certain(self):
        never = NetworkModel(default=LinkConfig(loss=0.0))
        always = NetworkModel(default=LinkConfig(loss=1.0))
        assert not never.lost("a", "b", "m")
        assert always.lost("a", "b", "m")

    def test_jitter_bounds_the_delay(self):
        model = NetworkModel(default=LinkConfig(delay=2, jitter=3))
        for i in range(32):
            delay = model.delay_of("a", "b", f"m{i}")
            assert 2 <= delay <= 5
            assert isinstance(delay, int)


# ----------------------------------------------------------------------
# Send fates and delivery ordering
# ----------------------------------------------------------------------

class TestSend:
    def test_self_addressed_message_rejected(self):
        channel = MessageChannel(NetworkModel())
        with pytest.raises(ChannelError, match="own"):
            channel.send("ping", "a", "a", 0)

    def test_perfect_link_delivers_immediately(self):
        channel = MessageChannel(NetworkModel())
        record = channel.send("ping", "a", "b", 3)
        assert record.fate == "delivered"
        assert record.deliver_at == 3
        assert record.msg_id == "ping@3:a>b"  # derived default id

    def test_severed_inside_the_window_only(self):
        span = PartitionSpan(start=5, end=10, severed=(("a", "b"),))
        channel = MessageChannel(NetworkModel(partitions=(span,)))
        assert channel.send("m", "a", "b", 5, msg_id="x").fate == "severed"
        assert channel.send("m", "a", "b", 10, msg_id="y").fate == "delivered"
        assert channel.stats.severed == 1
        assert channel.in_flight == 1  # severed messages never enqueue

    def test_certain_loss_is_lost(self):
        channel = MessageChannel(
            NetworkModel(default=LinkConfig(loss=1.0))
        )
        record = channel.send("m", "a", "b", 0)
        assert record.fate == "lost"
        assert not record.delivered
        assert channel.in_flight == 0

    def test_certain_duplication_enqueues_an_echo(self):
        channel = MessageChannel(
            NetworkModel(default=LinkConfig(duplicate=1.0))
        )
        record = channel.send("m", "a", "b", 0, msg_id="d1")
        assert record.fate == "delivered"
        assert channel.in_flight == 2
        assert channel.stats.sent == 1  # the echo is not a new send
        assert channel.stats.duplicated == 1
        echoes = [r for r in channel.log if r.fate == "duplicated"]
        assert [r.msg_id for r in echoes] == ["d1"]  # same logical id

    def test_stats_accounting(self):
        channel = MessageChannel(NetworkModel(default=LinkConfig(delay=2)))
        channel.send("join", "a", "b", 0)
        channel.send("join", "a", "b", 1)
        channel.send("renew", "b", "a", 1)
        stats = channel.stats
        assert stats.sent == 3
        assert stats.delivered == 3
        assert stats.total_delay == 6
        assert stats.by_kind == {"join": 2, "renew": 1}
        assert stats.loss_fraction == 0.0


class TestDeliverDue:
    def test_arrival_order_not_send_order(self):
        model = NetworkModel(
            links=(
                (("a", "b"), LinkConfig(delay=5)),
                (("a", "c"), LinkConfig(delay=1)),
            )
        )
        channel = MessageChannel(model)
        slow = channel.send("m", "a", "b", 0, msg_id="slow")
        fast = channel.send("m", "a", "c", 1, msg_id="fast")
        assert (slow.deliver_at, fast.deliver_at) == (5, 2)
        due = channel.deliver_due(10)
        assert [r.msg_id for r in due] == ["fast", "slow"]
        assert channel.in_flight == 0

    def test_ties_break_by_send_order(self):
        channel = MessageChannel(NetworkModel())
        channel.send("m", "a", "b", 0, msg_id="first")
        channel.send("m", "a", "c", 0, msg_id="second")
        assert [r.msg_id for r in channel.deliver_due(0)] == [
            "first", "second",
        ]

    def test_not_yet_due_stays_pending(self):
        channel = MessageChannel(NetworkModel(default=LinkConfig(delay=4)))
        channel.send("m", "a", "b", 0)
        assert channel.deliver_due(3) == []
        assert channel.in_flight == 1
        assert len(channel.deliver_due(4)) == 1


# ----------------------------------------------------------------------
# The request/verdict RPC
# ----------------------------------------------------------------------

class TestRpc:
    def rpc(self, channel, now=0, **kwargs):
        defaults = dict(
            key="k1", deadline=100, timeout=6, backoff=lossy_backoff(),
            max_attempts=3,
        )
        defaults.update(kwargs)
        return channel.rpc("admit", "a", "b", now, **defaults)

    def test_validation(self):
        channel = MessageChannel(NetworkModel())
        with pytest.raises(ChannelError, match="timeout"):
            self.rpc(channel, timeout=0)
        with pytest.raises(ChannelError, match="max_attempts"):
            self.rpc(channel, max_attempts=0)

    @pytest.mark.parametrize("kwargs, match", [
        ({"timeout": float("nan")}, "timeout"),
        ({"timeout": float("inf")}, "timeout"),
        ({"timeout": True}, "timeout"),
        ({"max_attempts": True}, "max_attempts"),
        ({"max_attempts": 2.0}, "max_attempts"),
    ])
    def test_malformed_arguments_rejected(self, kwargs, match):
        channel = MessageChannel(NetworkModel())
        with pytest.raises(ChannelError, match=match):
            self.rpc(channel, **kwargs)

    def test_perfect_link_resolves_in_one_attempt(self):
        channel = MessageChannel(NetworkModel())
        outcome = self.rpc(channel, now=3)
        assert outcome.ok
        assert outcome.attempts == 1
        assert outcome.completed_at == 3
        assert outcome.stray_replies == 0
        assert outcome.elapsed(3) == 0

    def test_delay_shows_up_as_round_trip_time(self):
        channel = MessageChannel(NetworkModel(default=LinkConfig(delay=2)))
        outcome = self.rpc(channel, now=10)
        assert outcome.ok
        assert outcome.completed_at == 14  # one rtt at base delay
        assert outcome.elapsed(10) == 4
        assert channel.stats.by_kind == {
            "admit-request": 1, "admit-verdict": 1,
        }

    def test_timeout_shorter_than_rtt_strays_every_verdict(self):
        channel = MessageChannel(NetworkModel(default=LinkConfig(delay=2)))
        outcome = self.rpc(channel, now=0, timeout=1, max_attempts=2)
        assert not outcome.ok
        assert outcome.attempts == 2
        assert outcome.stray_replies == 2  # verdicts landed, too late
        # attempt 0 at 0, retry at 0+1+backoff(0)=2, gave up at 2+1+2=5
        assert outcome.gave_up_at == 5

    def test_severed_link_exhausts_attempts(self):
        span = PartitionSpan(start=0, end=50, severed=(("a", "b"),))
        channel = MessageChannel(NetworkModel(partitions=(span,)))
        outcome = self.rpc(channel, now=0, timeout=2)
        assert not outcome.ok
        assert outcome.attempts == 3
        assert outcome.stray_replies == 0
        assert channel.stats.severed == 3

    def test_deadline_stops_the_retry_ladder_early(self):
        span = PartitionSpan(start=0, end=50, severed=(("a", "b"),))
        channel = MessageChannel(NetworkModel(partitions=(span,)))
        outcome = self.rpc(channel, now=0, timeout=1, deadline=2)
        assert not outcome.ok
        assert outcome.attempts == 1  # next attempt could not precede 2
        assert outcome.gave_up_at == 2  # capped at the deadline
        assert outcome.elapsed(0) == 2

    def test_retransmissions_reuse_the_logical_key(self):
        span = PartitionSpan(start=0, end=50, severed=(("a", "b"),))
        channel = MessageChannel(NetworkModel(partitions=(span,)))
        self.rpc(channel, now=0, timeout=2)
        ids = [record.msg_id for record in channel.log]
        assert ids == ["k1#0:req", "k1#1:req", "k1#2:req"]

    def test_same_seed_same_outcome(self):
        model = NetworkModel(seed=5, default=LinkConfig(loss=0.4, delay=1))
        first = self.rpc(MessageChannel(model), now=0)
        second = self.rpc(MessageChannel(model), now=0)
        assert first == second

    def test_duplicated_stray_verdict_counted_once_not_per_copy(self):
        """Regression: a verdict that misses its timeout and *also*
        draws a duplicate used to double-dip the accounting.  The stray
        is one logical late verdict per attempt, ``by_kind`` counts it
        once (it sums to ``sent``), and the echo shows up only in
        ``duplicated``."""
        channel = MessageChannel(
            NetworkModel(seed=3, default=LinkConfig(delay=2, duplicate=1.0))
        )
        outcome = self.rpc(channel, now=0, timeout=1, max_attempts=2)
        assert not outcome.ok
        assert outcome.stray_replies == 2  # one per attempt, not per copy
        stats = channel.stats
        assert stats.by_kind == {"admit-request": 2, "admit-verdict": 2}
        assert stats.sent == 4
        assert sum(stats.by_kind.values()) == stats.sent
        assert stats.duplicated == 4  # every leg echoed, accounted apart


# ----------------------------------------------------------------------
# Wire-state capture (the checkpoint's network section)
# ----------------------------------------------------------------------

class TestStateSnapshot:
    def test_restore_resumes_delivery_identically(self):
        model = NetworkModel(
            seed=2, default=LinkConfig(delay=1, jitter=3, duplicate=0.3)
        )
        channel = MessageChannel(model)
        for i in range(6):
            channel.send("ping", "a", "b", i, msg_id=f"m{i}")
        snapshot = channel.state_snapshot()
        expected = [(r.msg_id, r.fate) for r in channel.deliver_due(100)]
        twin = MessageChannel(model)
        twin.restore_state(snapshot)
        assert [(r.msg_id, r.fate) for r in twin.deliver_due(100)] == expected
        assert twin.stats == channel.stats
        assert twin.log == channel.log

    def test_snapshot_is_isolated_from_later_sends(self):
        model = NetworkModel(seed=2)
        channel = MessageChannel(model)
        channel.send("ping", "a", "b", 0, msg_id="m0")
        snapshot = channel.state_snapshot()
        channel.send("ping", "a", "b", 1, msg_id="m1")
        twin = MessageChannel(model)
        twin.restore_state(snapshot)
        assert twin.stats.sent == 1
        assert twin.in_flight == 1
        assert channel.stats.sent == 2
