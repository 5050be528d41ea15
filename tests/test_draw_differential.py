"""Integer fate and jitter draws against their ``Fraction`` oracles.

:meth:`MessageChannel.send <repro.system.channel.MessageChannel.send>`
and :class:`~repro.backoff.Backoff` draw a raw integer on
``[0, 2**64)`` and compare or scale it in integers.  The
``_reference_*`` methods of :class:`~repro.system.channel.NetworkModel`
and :class:`~repro.backoff.Backoff` keep the same formulas in
:class:`~fractions.Fraction` arithmetic.  Every case
below must agree in value *and* type: an ``int`` delay stays an ``int``,
a ``Fraction`` stays a ``Fraction``, and a fate is the same ``bool``.

Two sources of draws: seeded message ids (the real SHA-256 path), and
draws pinned at the edges of each threshold, where an off-by-one in the
cross-multiplication would show first.
"""

from __future__ import annotations

import dataclasses
import math
import random
from fractions import Fraction

import pytest

from repro.backoff import Backoff
from repro.system import channel as wire
from repro.system.channel import LinkConfig, MessageChannel, NetworkModel

#: 1e-7 reads as 0 at the channel's 10**6 denominator limit; 0.9999999
#: reads as 1.
PROBABILITIES = (0, 1, 0.1, 1e-7, 0.9999999, Fraction(1, 3))
JITTERS = tuple(range(8))
BACKOFF_BASES = (1, 3, 0.5, 1.25, Fraction(2, 3))
BACKOFF_JITTERS = (0, 0.1, 0.25, 0.5, Fraction(1, 3), 0.75, 0.999)

_TOP = 1 << 64


def _same(new, old) -> bool:
    return type(new) is type(old) and new == old


def _edge_draws(probability):
    """Draws at and around the point where ``draw / 2**64`` crosses the
    probability the channel compares against."""
    exact = Fraction(probability).limit_denominator(1_000_000)
    cut = math.ceil(exact * _TOP)
    return sorted(
        {0, 1, _TOP - 1} | {d for d in (cut - 1, cut, cut + 1) if 0 <= d < _TOP}
    )


def _sent(model, src, dst, msg_id):
    """The record a fresh channel on ``model`` writes for one message
    sent at 0."""
    return MessageChannel(model).send("m", src, dst, 0, msg_id=msg_id)


def _fates(model, src, dst, msg_id):
    """``(channel, oracle)`` pairs: the loss fate, and the delay, drawn
    on a lossless twin of the model so that every message has one."""
    lossless = dataclasses.replace(
        model, default=dataclasses.replace(model.default, loss=0)
    )
    return (
        (_sent(model, src, dst, msg_id).fate == "lost",
         model._reference_lost(src, dst, msg_id)),
        (_sent(lossless, src, dst, msg_id).deliver_at,
         model._reference_delay_of(src, dst, msg_id)),
    )


class TestChannelDraws:
    @pytest.mark.parametrize("probability", PROBABILITIES)
    def test_seeded_fates_match_the_fraction_formulas(self, probability):
        rng = random.Random(f"draws:{probability!r}")
        for jitter in JITTERS:
            model = NetworkModel(
                seed=rng.randrange(1 << 32),
                default=LinkConfig(
                    delay=rng.randrange(4), jitter=jitter, loss=probability,
                ),
            )
            for i in range(64):
                msg_id = f"m{rng.randrange(1 << 30)}#{i}"
                for new, old in _fates(model, "n0", f"n{i % 3 + 1}", msg_id):
                    assert _same(new, old), (probability, jitter, msg_id)

    @pytest.mark.parametrize("probability", PROBABILITIES)
    def test_threshold_edges_match(self, probability, monkeypatch):
        for jitter in JITTERS:
            model = NetworkModel(
                default=LinkConfig(delay=1, jitter=jitter, loss=probability),
            )
            for draw in _edge_draws(probability):
                monkeypatch.setattr(wire, "_draw", lambda key, d=draw: d)
                for new, old in _fates(model, "a", "b", "m"):
                    assert _same(new, old), (probability, jitter, draw)

    def test_jitter_edges_match(self, monkeypatch):
        """A delay steps up exactly where ``draw * (jitter + 1)`` crosses
        a multiple of 2**64."""
        for jitter in JITTERS:
            model = NetworkModel(default=LinkConfig(delay=2, jitter=jitter))
            steps = range(1, jitter + 1)
            edges = {0, _TOP - 1} | {
                math.ceil(Fraction(k * _TOP, jitter + 1)) + off
                for k in steps for off in (-1, 0)
            }
            for draw in sorted(edges):
                monkeypatch.setattr(wire, "_draw", lambda key, d=draw: d)
                assert _same(
                    _sent(model, "a", "b", "m").deliver_at,
                    model._reference_delay_of("a", "b", "m"),
                ), (jitter, draw)


class TestBackoffDraws:
    @pytest.mark.parametrize("base", BACKOFF_BASES)
    def test_seeded_delays_match_the_fraction_formula(self, base):
        rng = random.Random(f"backoff:{base!r}")
        for jitter in BACKOFF_JITTERS:
            for factor, cap in ((2.0, 16 * base), (1.5, 7), (3, 4 * base)):
                if cap < base:
                    continue
                backoff = Backoff(
                    base=base, factor=factor, cap=cap, jitter=jitter,
                    seed=rng.randrange(1 << 32),
                )
                for attempt in range(8):
                    key = f"k{rng.randrange(1 << 20)}"
                    new = backoff.delay(attempt, key=key)
                    old = backoff._reference_delay(attempt, key=key)
                    assert _same(new, old), (base, jitter, factor, attempt)

    @pytest.mark.parametrize("base", BACKOFF_BASES)
    def test_draw_extremes_and_clamps_match(self, base, monkeypatch):
        """The lowest and highest draws push the jittered delay into the
        ``[base, cap]`` clamps; the middle lands exactly on the ladder."""
        for jitter in BACKOFF_JITTERS:
            backoff = Backoff(base=base, factor=2.0, cap=8 * base, jitter=jitter)
            for draw in (0, 1, _TOP // 2, _TOP - 1):
                monkeypatch.setattr(
                    Backoff, "_draw", lambda self, a, k, d=draw: d
                )
                for attempt in range(6):
                    assert _same(
                        backoff.delay(attempt),
                        backoff._reference_delay(attempt),
                    ), (base, jitter, draw, attempt)

    @pytest.mark.parametrize("jitter", [0, 0.25])
    def test_equal_configs_of_other_types_keep_their_delay_types(self, jitter):
        """``1``, ``1.0`` and ``Fraction(1)`` are equal, so a ladder cache
        keyed by value alone would hand one config the other's delays."""
        configs = [
            Backoff(base=base, factor=2, cap=cap, jitter=jitter, seed=5)
            for base, cap in (
                (1, 16), (1.0, 16.0), (Fraction(1), Fraction(16))
            )
        ]
        assert configs[0] == configs[1] == configs[2]
        for order in (configs, configs[::-1]):
            for backoff in order:
                for attempt in range(6):
                    assert _same(
                        backoff.delay(attempt, key="k"),
                        backoff._reference_delay(attempt, key="k"),
                    ), (backoff, attempt)
