"""The channel's wire against a re-derivation from the model's oracles.

:class:`~repro.system.channel.MessageChannel` resolves each directed link
once (delay, jitter, thresholds, the partition windows that cut it, the
draw-key prefix) and folds each record's integer delay into its stats.
Here every record, RPC outcome and stats field is re-derived message by
message from :meth:`PartitionSpan.cuts` and the model's ``Fraction``
draws :meth:`NetworkModel._reference_lost` and ``_reference_delay_of``,
with backoff from :meth:`Backoff._reference_delay` and the delay total
as the running ``total + deliver_at - sent_at``, and the two must agree
in value *and* in ``type()``.

Send times mix ints with ``Fraction`` instants whose denominator is
``2**64``, as jittered backoff produces: an int total stays an int until
a delivery sent at a Fraction instant is accounted, and is a Fraction
after.
"""

from __future__ import annotations

import pickle
import random
from dataclasses import fields
from fractions import Fraction

import pytest

from repro.backoff import Backoff
from repro.system.channel import (
    ChannelStats,
    LinkConfig,
    MessageChannel,
    NetworkModel,
    PartitionSpan,
    RpcOutcome,
    WireRecord,
)

ENDPOINTS = ("a", "b", "c", "d")
LOSSES = (0, 0.1, 0.3, Fraction(1, 3), 1)
SEEDS = range(8)


def _same(new, old) -> bool:
    return type(new) is type(old) and new == old


def _time(rng: random.Random, limit: int = 40):
    """An int, or a Fraction with a 2**64 denominator (jittered backoff)."""
    if rng.random() < 0.5:
        return rng.randrange(limit)
    return Fraction(rng.randrange(limit << 64), 1 << 64)


def _config(rng: random.Random) -> LinkConfig:
    return LinkConfig(
        delay=rng.randrange(4),
        jitter=rng.randrange(4),
        loss=rng.choice(LOSSES),
    )


def _model(seed: int) -> NetworkModel:
    rng = random.Random(f"wire:{seed}")
    pairs = [(a, b) for a in ENDPOINTS for b in ENDPOINTS if a < b]
    links = tuple(
        (pair, _config(rng)) for pair in rng.sample(pairs, 2)
    )
    partitions = []
    for index in range(rng.randrange(1, 4)):
        start = _time(rng, 30)
        partitions.append(
            PartitionSpan(
                start=start,
                end=start + 1 + _time(rng, 10),
                severed=tuple(rng.sample(pairs, rng.randrange(1, 3))),
                name=f"p{index}",
            )
        )
    return NetworkModel(
        seed=rng.randrange(1 << 32),
        default=_config(rng),
        links=links,
        partitions=tuple(partitions),
    )


def _endpoints(rng: random.Random):
    src, dst = rng.sample(ENDPOINTS, 2)
    return src, dst


# ----------------------------------------------------------------------
# The oracle: the wire re-derived from the model, one message at a time
# ----------------------------------------------------------------------
def oracle_send(model, kind, src, dst, now, msg_id, payload=None):
    """The records one send writes (one: a send has one fate)."""
    if any(span.cuts(src, dst, now) for span in model.partitions):
        return [WireRecord(msg_id, kind, src, dst, now, "severed",
                           payload=payload)]
    if model._reference_lost(src, dst, msg_id):
        return [WireRecord(msg_id, kind, src, dst, now, "lost",
                           payload=payload)]
    deliver_at = now + model._reference_delay_of(src, dst, msg_id)
    return [WireRecord(msg_id, kind, src, dst, now, "delivered",
                       deliver_at, payload)]


def oracle_rpc(model, backoff, kind, src, dst, now, *, key, deadline,
               timeout, max_attempts):
    """``(outcome, records)`` of one request/verdict exchange."""
    records = []
    strays = 0
    t_send = now
    attempt = 0
    while True:
        request = oracle_send(model, f"{kind}-request", src, dst, t_send,
                              f"{key}#{attempt}:req")
        records += request
        if request[0].deliver_at is not None:
            verdict = oracle_send(model, f"{kind}-verdict", dst, src,
                                  request[0].deliver_at,
                                  f"{key}#{attempt}:ack")
            records += verdict
            if verdict[0].deliver_at is not None:
                if verdict[0].deliver_at <= t_send + timeout:
                    return RpcOutcome(
                        ok=True, attempts=attempt + 1,
                        completed_at=verdict[0].deliver_at,
                        stray_replies=strays,
                    ), records
                strays += 1
        attempt += 1
        next_send = (
            t_send + timeout + backoff._reference_delay(attempt - 1, key=key)
        )
        if attempt >= max_attempts or next_send >= deadline:
            return RpcOutcome(
                ok=False, attempts=attempt,
                gave_up_at=min(next_send, deadline), stray_replies=strays,
            ), records
        t_send = next_send


def oracle_stats(records) -> ChannelStats:
    stats = ChannelStats()
    for record in records:
        stats.sent += 1
        stats.by_kind[record.kind] = stats.by_kind.get(record.kind, 0) + 1
        if record.fate == "lost":
            stats.lost += 1
        elif record.fate == "severed":
            stats.severed += 1
        else:
            stats.delivered += 1
            stats.total_delay = (
                stats.total_delay + record.deliver_at - record.sent_at
            )
    return stats


# ----------------------------------------------------------------------
def _assert_same_fields(new, old, context):
    assert type(new) is type(old), context
    for spec in fields(old):
        a, b = getattr(new, spec.name), getattr(old, spec.name)
        assert _same(a, b), (context, spec.name, a, b)


def _assert_same_records(new, old, context):
    assert len(new) == len(old), context
    for a, b in zip(new, old):
        _assert_same_fields(a, b, context)
        assert a == b and hash(a) == hash(b), context
        assert pickle.dumps(a) == pickle.dumps(b), context


def _assert_same_stats(new: ChannelStats, old: ChannelStats, context):
    _assert_same_fields(new, old, context)
    assert list(new.by_kind.items()) == list(old.by_kind.items()), context


@pytest.mark.parametrize("seed", SEEDS)
def test_sends_match_the_oracles(seed):
    model = _model(seed)
    rng = random.Random(f"sends:{seed}")
    channel = MessageChannel(model)
    expected = []
    for i in range(200):
        src, dst = _endpoints(rng)
        now = _time(rng)
        kind = rng.choice(("join", "renew", "offer"))
        msg_id = f"m{i}"
        record = channel.send(kind, src, dst, now, msg_id=msg_id,
                              payload=i, enqueue=rng.random() < 0.5)
        oracle = oracle_send(model, kind, src, dst, now, msg_id, payload=i)
        _assert_same_records([record], oracle[:1], (seed, i))
        expected += oracle
        _assert_same_stats(channel.stats, oracle_stats(expected), (seed, i))
    _assert_same_records(channel.log, expected, seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_rpcs_match_the_oracles(seed):
    model = _model(seed)
    rng = random.Random(f"rpcs:{seed}")
    backoff = Backoff(base=1, factor=2.0, cap=4, jitter=0.25, seed=seed)
    channel = MessageChannel(model)
    expected = []
    for i in range(120):
        src, dst = _endpoints(rng)
        now = _time(rng)
        arguments = dict(
            key=f"job{i}:a{i}",
            deadline=now + rng.randrange(1, 30),
            timeout=rng.choice((1, 2, 3, Fraction(5, 2))),
            max_attempts=rng.randrange(1, 6),
        )
        outcome = channel.rpc("admit", src, dst, now, backoff=backoff,
                              **arguments)
        oracle, records = oracle_rpc(model, backoff, "admit", src, dst, now,
                                     **arguments)
        _assert_same_fields(outcome, oracle, (seed, i))
        expected += records
        _assert_same_stats(channel.stats, oracle_stats(expected), (seed, i))
    _assert_same_records(channel.log, expected, seed)
    assert channel.deliver_due(10**9) == []  # rpc legs resolve closed-form


@pytest.mark.parametrize("seed", SEEDS)
def test_delivery_order_matches_the_oracle_records(seed):
    model = _model(seed)
    rng = random.Random(f"order:{seed}")
    channel = MessageChannel(model)
    delivered = []
    for i in range(100):
        src, dst = _endpoints(rng)
        oracle = oracle_send(model, "ping", src, dst, _time(rng), f"m{i}")
        channel.send("ping", src, dst, oracle[0].sent_at, msg_id=f"m{i}")
        delivered += [r for r in oracle if r.deliver_at is not None]
    arrival = sorted(
        range(len(delivered)), key=lambda k: (delivered[k].deliver_at, k)
    )
    _assert_same_records(
        channel.deliver_due(10**6), [delivered[k] for k in arrival], seed
    )


class TestTotalDelayType:
    """``total_delay`` is an int until a delivery sent at a Fraction
    instant is accounted; from then on it is a Fraction."""

    def test_int_until_a_fraction_time_delivery(self):
        channel = MessageChannel(NetworkModel(default=LinkConfig(delay=2)))
        channel.send("m", "a", "b", 0, msg_id="x0")
        channel.send("m", "a", "b", 5, msg_id="x1")
        assert _same(channel.stats.total_delay, 4)
        channel.send("m", "a", "b", Fraction(1, 1 << 64), msg_id="x2")
        assert _same(channel.stats.total_delay, Fraction(6))
        channel.send("m", "a", "b", 7, msg_id="x3")
        assert _same(channel.stats.total_delay, Fraction(8))

    def test_undelivered_fraction_sends_leave_it_an_int(self):
        span = PartitionSpan(start=0, end=10, severed=(("a", "b"),))
        model = NetworkModel(
            default=LinkConfig(delay=1, loss=1),
            links=((("a", "c"), LinkConfig(delay=1)),),
            partitions=(span,),
        )
        channel = MessageChannel(model)
        channel.send("m", "a", "c", 3, msg_id="ok")
        channel.send("m", "a", "b", Fraction(1, 3), msg_id="cut")
        channel.send("m", "c", "b", Fraction(1, 3), msg_id="gone")
        assert [r.fate for r in channel.log] == ["delivered", "severed", "lost"]
        assert _same(channel.stats.total_delay, 1)

    def test_float_send_times_take_the_full_expression(self):
        channel = MessageChannel(NetworkModel(default=LinkConfig(delay=1)))
        channel.send("m", "a", "b", 3, msg_id="i")
        channel.send("m", "a", "b", 0.1, msg_id="f")
        assert _same(channel.stats.total_delay, 1 + 1.1 - 0.1)


def test_a_pickled_channel_re_resolves_its_links():
    model = _model(0)
    channel = MessageChannel(model)
    channel.send("m", "a", "b", 0, msg_id="before")
    assert channel._links
    state = pickle.loads(pickle.dumps(channel)).__dict__
    assert state["_links"] == {}
    assert "_links" not in channel.__getstate__()
    assert "_links" not in str(channel.state_snapshot())
