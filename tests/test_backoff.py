"""The shared backoff primitive: capped growth, stateless seeded jitter."""

from __future__ import annotations

from fractions import Fraction

import pytest

from repro.backoff import Backoff
from repro.errors import RecoveryError


class TestLadder:
    def test_unjittered_ladder_is_capped_exponential(self):
        backoff = Backoff(base=1, factor=2.0, cap=16)
        assert [backoff.delay(a) for a in range(6)] == [1, 2, 4, 8, 16, 16]

    def test_integral_delays_stay_integral(self):
        backoff = Backoff(base=2, factor=2.0, cap=64)
        for attempt in range(6):
            assert isinstance(backoff.delay(attempt), int)

    def test_first_attempt_waits_base(self):
        assert Backoff(base=3, cap=30).delay(0) == 3

    def test_negative_attempt_rejected(self):
        with pytest.raises(RecoveryError):
            Backoff().delay(-1)

    @pytest.mark.parametrize("attempt", [True, 1.0, 0.5, "1"])
    def test_non_int_attempt_rejected(self, attempt):
        with pytest.raises(RecoveryError, match="attempt"):
            Backoff().delay(attempt)


class TestJitter:
    def test_jitter_is_deterministic_per_call(self):
        backoff = Backoff(base=4, cap=64, jitter=0.25, seed=7)
        for attempt in range(5):
            assert backoff.delay(attempt, key="e0") == backoff.delay(
                attempt, key="e0"
            )

    def test_jitter_stays_within_amplitude_and_bounds(self):
        backoff = Backoff(base=1, factor=2.0, cap=16, jitter=0.5, seed=3)
        for attempt in range(8):
            for key in ("a", "b", "c"):
                delay = backoff.delay(attempt, key=key)
                undjittered = min(16, 2 ** attempt)
                assert Fraction(1) <= Fraction(delay) <= Fraction(16)
                assert (
                    Fraction(undjittered) * Fraction(1, 2)
                    <= Fraction(delay)
                    <= Fraction(undjittered) * Fraction(3, 2)
                )

    def test_distinct_keys_draw_independent_jitter(self):
        backoff = Backoff(base=4, cap=4096, factor=2.0, jitter=0.3, seed=0)
        ladders = {
            key: tuple(backoff.delay(a, key=key) for a in range(6))
            for key in ("enclave-0", "enclave-1", "enclave-2")
        }
        assert len(set(ladders.values())) == len(ladders)

    def test_key_order_never_couples_draws(self):
        """Interleaving concurrent users must not perturb any delay —
        the property a shared random.Random stream would break."""
        backoff = Backoff(base=2, cap=256, jitter=0.4, seed=11)
        forward = [backoff.delay(a, key=k) for k in "abc" for a in range(4)]
        backward = [
            backoff.delay(a, key=k)
            for a in reversed(range(4))
            for k in reversed("abc")
        ]
        assert sorted(map(Fraction, forward)) == sorted(map(Fraction, backward))

    def test_seed_changes_jitter_but_not_envelope(self):
        a = Backoff(base=4, cap=64, jitter=0.25, seed=1)
        b = Backoff(base=4, cap=64, jitter=0.25, seed=2)
        diverged = any(
            a.delay(n, key="e") != b.delay(n, key="e") for n in range(8)
        )
        assert diverged

    def test_zero_jitter_matches_classic_ladder(self):
        plain = Backoff(base=1, factor=2.0, cap=8)
        seeded = Backoff(base=1, factor=2.0, cap=8, jitter=0.0, seed=99)
        for attempt in range(5):
            assert plain.delay(attempt) == seeded.delay(attempt, key="x")

    def test_delay_is_exact_arithmetic(self):
        backoff = Backoff(base=1, cap=16, jitter=0.25, seed=5)
        for attempt in range(5):
            assert isinstance(backoff.delay(attempt, key="q"), (int, Fraction))


class TestValidation:
    @pytest.mark.parametrize("kwargs", [
        {"base": 0},
        {"base": -1},
        {"cap": 0.5, "base": 1},
        {"factor": 0.5},
        {"jitter": 1.0},
        {"jitter": -0.1},
        {"base": float("nan")},
        {"base": True},
        {"factor": float("nan")},
        {"cap": float("nan")},
        {"seed": True},
    ])
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(RecoveryError):
            Backoff(**kwargs)
