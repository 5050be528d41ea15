"""Deterministic message passing on the simulator's virtual clock.

Everything that crosses an enclave boundary — capacity joins, admission
check requests and verdicts, lease renewals, migration offers — flows
through a :class:`MessageChannel` as :class:`WireRecord` s.  The channel
is the modelled *environment* of the paper's open system: links delay,
lose, and reorder messages, and scheduled partitions sever them
outright, all under a :class:`NetworkModel` whose every draw is a
stateless function of ``(seed, link, message id)`` through SHA-256 — the
same discipline as :class:`repro.backoff.Backoff`.  No shared stream, no
draw-order coupling: replaying a run, resuming it mid-flight, or
reordering two independent senders can never change a single fate.

Every draw is a raw integer on ``[0, 2**64)``.  A loss fate compares
it by cross-multiplication against the link probability's exact
``(num, den)``, computed once per probability value; a jittered
delay is the draw scaled in integers.  No message pays for a
:class:`~fractions.Fraction`, and every fate equals the one the exact
rational comparison gives.  Delays are integral (they live on the event
grid); retry spacing may be fractional (jittered backoff), and all
arithmetic stays exact so the accumulated network time charged against
a deadline via :func:`repro.decision.admission.clip_start` is a
deterministic exact number, never a float dance.

A send costs its fate draws: one SHA-256 digest for loss and one for a
jittered delay.  Everything else is read off the model once per
directed link, on its first message: the delay, the jitter spread, the
loss threshold, the windows of the partitions that sever the link, and
the ``"{seed}:{src}>{dst}:"`` head of its draw keys.  Records are filled
in without the frozen ``__init__``, and the stats add the int delay the
send drew rather than a difference of (possibly Fraction) instants.
The :class:`NetworkModel`'s ``_reference_*`` draws, in
:class:`~fractions.Fraction` arithmetic, and :meth:`PartitionSpan.cuts`
are the per-message oracles the differential tests hold the channel
to.  On E23's plan a send takes about 4.2 µs and an RPC, about five
sends and 2.5 backoff delays, about 51 µs (best passes on a 2-vCPU
Intel Xeon, CPython 3.11; EXPERIMENTS.md, E22/E23 addendum).
"""

from __future__ import annotations

import hashlib
import heapq
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import lru_cache
from numbers import Real
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.backoff import Backoff
from repro.errors import ChannelError
from repro.intervals.interval import Time
from repro.markers import checkpointable
from repro.observability import get_registry

#: Resolution of one fate draw: the first 8 digest bytes, an integer
#: uniform on [0, 2**64) read as a fraction of 2**64.
_DRAW_BITS = 64

#: Message fates a wire record can carry.
FATES = ("delivered", "lost", "severed")


def _check_probability(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, Real) or not (
        0 <= value <= 1
    ):
        raise ChannelError(f"{name} must lie in [0, 1], got {value!r}")


def _check_ticks(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ChannelError(f"{name} must be a non-negative int, got {value!r}")


def _check_finite(name: str, value) -> None:
    if (
        isinstance(value, bool)
        or not isinstance(value, Real)
        or not math.isfinite(value)
    ):
        raise ChannelError(f"{name} must be a finite number, got {value!r}")


def _is_link(pair) -> bool:
    """Whether ``pair`` names an undirected link: a tuple of two names."""
    return (
        isinstance(pair, tuple)
        and len(pair) == 2
        and all(isinstance(end, str) for end in pair)
    )


@lru_cache(maxsize=256)
def _threshold(probability) -> Tuple[int, int]:
    """``(num * 2**64, den)`` of the probability a draw must fall below.

    ``probability`` is read to the nearest fraction with a denominator of
    at most 10**6, once per value; a draw ``raw`` then falls below it
    exactly when ``raw * den < num * 2**64``.
    """
    exact = Fraction(probability).limit_denominator(1_000_000)
    return exact.numerator << _DRAW_BITS, exact.denominator


def _draw(key: str) -> int:
    """One uniform integer draw on ``[0, 2**64)``: the first 8 bytes of
    the SHA-256 digest of ``key``, which starts with the network seed
    (builtin ``hash`` is process-salted; a shared ``random.Random``
    would couple senders through draw order)."""
    return int.from_bytes(hashlib.sha256(key.encode()).digest()[:8], "big")


@dataclass(frozen=True)
class LinkConfig:
    """Behaviour of one (undirected) link between two endpoints."""

    #: base one-way delay, in virtual ticks (integral: the event grid)
    delay: int = 0
    #: extra delay drawn uniformly from {0, ..., jitter}
    jitter: int = 0
    #: probability a message vanishes in flight
    loss: float = 0.0

    def __post_init__(self) -> None:
        _check_ticks("link delay", self.delay)
        _check_ticks("link jitter", self.jitter)
        _check_probability("link loss", self.loss)

    @property
    def is_perfect(self) -> bool:
        return self.delay == 0 and self.jitter == 0 and not self.loss


@dataclass(frozen=True)
class PartitionSpan:
    """A scheduled partition: the named links are severed on [start, end)."""

    start: Time
    end: Time
    #: undirected endpoint pairs the partition cuts
    severed: Tuple[Tuple[str, str], ...]
    name: str = ""

    def __post_init__(self) -> None:
        _check_finite("partition start", self.start)
        _check_finite("partition end", self.end)
        if self.end <= self.start:
            raise ChannelError(
                f"partition window must be non-empty, got "
                f"[{self.start!r}, {self.end!r})"
            )
        if not self.severed:
            raise ChannelError("partition must sever at least one link")
        for pair in self.severed:
            if not _is_link(pair):
                raise ChannelError(
                    f"severed links must be pairs of two endpoint names, "
                    f"got {pair!r}"
                )

    def cuts(self, src: str, dst: str, at: Time) -> bool:
        if not self.start <= at < self.end:
            return False
        return (src, dst) in self.severed or (dst, src) in self.severed


@dataclass(frozen=True)
class NetworkModel:
    """Seeded, stateless oracle for every message's fate.

    ``links`` overrides the ``default`` config per undirected endpoint
    pair; the tuple-of-pairs shape keeps the model frozen, hashable, and
    picklable inside checkpointed policies.
    """

    seed: int = 0
    default: LinkConfig = field(default_factory=LinkConfig)
    links: Tuple[Tuple[Tuple[str, str], LinkConfig], ...] = ()
    partitions: Tuple[PartitionSpan, ...] = ()

    def __post_init__(self) -> None:
        _check_ticks("network seed", self.seed)
        if not isinstance(self.default, LinkConfig):
            raise ChannelError(
                f"network default must be a LinkConfig, got {self.default!r}"
            )
        for entry in self.links:
            if not (
                isinstance(entry, tuple)
                and len(entry) == 2
                and _is_link(entry[0])
                and isinstance(entry[1], LinkConfig)
            ):
                raise ChannelError(
                    f"network links must be ((src, dst), LinkConfig) pairs, "
                    f"got {entry!r}"
                )

    # ------------------------------------------------------------------
    def link(self, src: str, dst: str) -> LinkConfig:
        for (a, b), config in self.links:
            if (a, b) == (src, dst) or (b, a) == (src, dst):
                return config
        return self.default

    # ------------------------------------------------------------------
    # Fraction-arithmetic oracles the differential tests hold the
    # channel's integer draws to, value and type.
    def _reference_delay_of(self, src: str, dst: str, msg_id: str) -> int:
        config = self.link(src, dst)
        if not config.jitter:
            return config.delay
        spread = self._reference_draw(f"{src}>{dst}:{msg_id}:delay")
        return config.delay + int(spread * (config.jitter + 1))

    def _reference_lost(self, src: str, dst: str, msg_id: str) -> bool:
        config = self.link(src, dst)
        if not config.loss:
            return False
        return self._reference_draw(f"{src}>{dst}:{msg_id}:loss") < Fraction(
            config.loss
        ).limit_denominator(1_000_000)

    def _reference_draw(self, key: str) -> Fraction:
        """The draw of ``(seed, key)`` as a fraction of ``2**64``."""
        return Fraction(_draw(f"{self.seed}:{key}"), 1 << _DRAW_BITS)


@dataclass(frozen=True)
class WireRecord:
    """One message's journey (or death) across a link."""

    msg_id: str
    kind: str
    src: str
    dst: str
    sent_at: Time
    fate: str  # one of FATES
    #: arrival instant; None when the message never arrived
    deliver_at: Optional[Time] = None
    payload: object = None

    @property
    def delivered(self) -> bool:
        return self.deliver_at is not None


_new = object.__new__


def _record(
    msg_id: str,
    kind: str,
    src: str,
    dst: str,
    sent_at: Time,
    fate: str,
    deliver_at: Optional[Time],
    payload: object,
) -> WireRecord:
    """A :class:`WireRecord` filled straight into its ``__dict__``.

    The frozen ``__init__`` pays one ``object.__setattr__`` per field;
    this is the same instance (fields in declaration order, so equality,
    hash and pickle bytes are the ``__init__`` ones) at half the cost.
    """
    record = _new(WireRecord)
    record.__dict__.update(
        msg_id=msg_id, kind=kind, src=src, dst=dst, sent_at=sent_at,
        fate=fate, deliver_at=deliver_at, payload=payload,
    )
    return record


class _Link(NamedTuple):
    """One directed link's parameters, resolved once from the model."""

    #: base one-way delay, in ticks
    delay: int
    #: ``jitter + 1``, the number of delay steps a draw spreads over
    #: (0 on an unjittered link)
    spread: int
    #: :func:`_threshold` of the loss probability (None: never lost)
    loss: Optional[Tuple[int, int]]
    #: ``[start, end)`` of every partition that severs the link
    windows: Tuple[Tuple[Time, Time], ...]
    #: ``"{seed}:{src}>{dst}:"``, the head of each of its draw keys
    prefix: str


def _plus_delay(total: Time, delay: int, record: WireRecord) -> Time:
    """``total + record.deliver_at - record.sent_at``, where ``delay`` is
    that difference in ints, in the expression's value and type.

    On exact send times the total is a sum of int delays: an int until a
    delivery sent at a :class:`~fractions.Fraction` instant makes it an
    integral Fraction, as the full expression would, and an int sum
    inside that Fraction after.  Any other time type takes the full
    expression, rounding and all.
    """
    sent = record.sent_at.__class__
    if sent is int or sent is Fraction:
        kind = total.__class__
        if kind is int:
            return total + delay if sent is int else Fraction(total + delay)
        if kind is Fraction and total.denominator == 1:
            return Fraction(total.numerator + delay)
    return total + record.deliver_at - record.sent_at


@dataclass
class ChannelStats:
    """Aggregate accounting over one channel's lifetime; ``by_kind``
    counts messages per kind and sums to ``sent``."""

    sent: int = 0
    delivered: int = 0
    lost: int = 0
    severed: int = 0
    #: sum of one-way delivery delays, in ticks
    total_delay: Time = 0
    by_kind: Dict[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class RpcOutcome:
    """Result of a request/verdict exchange with timeout and retries."""

    ok: bool
    attempts: int
    #: instant the verdict landed back at the requester (success only)
    completed_at: Optional[Time] = None
    #: instant the requester stopped trying (failure only)
    gave_up_at: Optional[Time] = None
    #: verdicts that arrived after their attempt's timeout had fired
    stray_replies: int = 0

    def elapsed(self, since: Time) -> Time:
        end = self.completed_at if self.ok else self.gave_up_at
        return end - since  # type: ignore[operator]


@checkpointable
class MessageChannel:
    """A log-keeping conduit applying one :class:`NetworkModel`.

    ``send`` decides a message's fate immediately (the model is
    stateless) and, for deliveries, enqueues it; ``deliver_due`` hands
    back everything whose arrival instant has passed, in arrival order —
    which differs from send order whenever jitter says so (reordering is
    emergent, not a separate knob).
    """

    def __init__(self, network: NetworkModel, *, name: str = "channel") -> None:
        # Stateless configuration, not run state: the model decides fates
        # pure-functionally and the restoring owner re-binds the topology
        # it is resuming under.
        self._network = network
        # Construction identity: the restoring owner addresses the
        # channel, the channel never re-reads its name.
        self.name = name
        self._log: List[WireRecord] = []
        self._pending: List[Tuple[Time, int, WireRecord]] = []
        self._pending_seq = 0
        self._stats = ChannelStats()
        #: (src, dst) -> the link's parameters, resolved on first send
        self._links: Dict[Tuple[str, str], _Link] = {}  # repro-lint: disable=flow-snapshot-coverage -- derived from the network model, re-resolved on the first send after a restore

    def __getstate__(self) -> Dict[str, object]:
        state = dict(self.__dict__)
        state.pop("_links")
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)
        self._links = {}

    # ------------------------------------------------------------------
    @property
    def network(self) -> NetworkModel:
        return self._network

    @property
    def log(self) -> Tuple[WireRecord, ...]:
        return tuple(self._log)

    @property
    def stats(self) -> ChannelStats:
        return self._stats

    # ------------------------------------------------------------------
    def state_snapshot(self) -> Dict[str, object]:
        """The channel's full mutable state, isolated from later sends.

        Because every fate is a stateless function of ``(seed, link,
        msg_id)``, this dict *is* the wire: restoring it (plus the same
        :class:`NetworkModel`) resumes a run without replaying a single
        draw.  The pending heap is captured entry-for-entry — delivery
        order is the total order on ``(deliver_at, seq)``, so a
        re-heapified copy pops identically.
        """
        stats = self._stats
        return {
            "log": tuple(self._log),
            "pending": tuple(self._pending),
            "pending_seq": self._pending_seq,
            "stats": replace(stats, by_kind=dict(stats.by_kind)),
        }

    def restore_state(self, snapshot: Dict[str, object]) -> None:
        """Reinstate a :meth:`state_snapshot`, byte-identical."""
        self._log = list(snapshot["log"])  # type: ignore[arg-type]
        self._pending = list(snapshot["pending"])  # type: ignore[arg-type]
        heapq.heapify(self._pending)
        self._pending_seq = snapshot["pending_seq"]  # type: ignore[assignment]
        stats = snapshot["stats"]
        self._stats = replace(stats, by_kind=dict(stats.by_kind))

    # ------------------------------------------------------------------
    def send(
        self,
        kind: str,
        src: str,
        dst: str,
        now: Time,
        *,
        msg_id: str = "",
        payload: object = None,
        enqueue: bool = True,
    ) -> WireRecord:
        """Dispatch one message; returns its wire record."""
        if src == dst:
            raise ChannelError(
                f"message {msg_id or kind!r} addressed to its own "
                f"endpoint {src!r}"
            )
        if not msg_id:
            msg_id = f"{kind}@{now}:{src}>{dst}"
        base, spread, loss, windows, prefix = (
            self._links.get((src, dst)) or self._resolve(src, dst)
        )
        for start, end in windows:
            if start <= now < end:
                return self._account(
                    _record(msg_id, kind, src, dst, now, "severed", None,
                            payload)
                )
        if loss and _draw(prefix + msg_id + ":loss") * loss[1] < loss[0]:
            return self._account(
                _record(msg_id, kind, src, dst, now, "lost", None, payload)
            )
        delay = base
        if spread:
            delay += (_draw(prefix + msg_id + ":delay") * spread) >> _DRAW_BITS
        record = self._account(
            _record(msg_id, kind, src, dst, now, "delivered", now + delay,
                    payload),
            delay,
        )
        if enqueue:
            self._enqueue(record)
        return record

    def deliver_due(self, now: Time) -> List[WireRecord]:
        """Every enqueued record whose arrival instant has passed, in
        arrival order (ties broken by send order)."""
        due: List[WireRecord] = []
        while self._pending and self._pending[0][0] <= now:
            _, _, record = heapq.heappop(self._pending)
            due.append(record)
        return due

    # ------------------------------------------------------------------
    def rpc(
        self,
        kind: str,
        src: str,
        dst: str,
        now: Time,
        *,
        key: str,
        deadline: Time,
        timeout: Time,
        backoff: Backoff,
        max_attempts: int = 8,
    ) -> RpcOutcome:
        """A request/verdict exchange with timeout, retries, and backoff.

        Each attempt sends a request ``src -> dst``; a delivered request
        triggers an immediate verdict ``dst -> src``.  The requester
        waits ``timeout`` per attempt, then backs off (seeded jitter
        keyed by ``key``) and retries — until the verdict lands, the
        next attempt could no longer start before ``deadline``, or
        ``max_attempts`` runs out.  Retransmitted requests reuse the
        logical ``key``, so receivers can deduplicate (at-most-once
        decisions); verdicts arriving after their attempt timed out are
        counted as strays, never consumed.

        Every leg is logged as wire records (not enqueued: the exchange
        is resolved closed-form, which is equivalent because fates are
        stateless — and exactly what keeps replay byte-identical).
        """
        _check_finite("rpc timeout", timeout)
        if timeout <= 0:
            raise ChannelError(f"rpc timeout must be > 0, got {timeout!r}")
        if (
            isinstance(max_attempts, bool)
            or not isinstance(max_attempts, int)
            or max_attempts < 1
        ):
            raise ChannelError(
                f"rpc max_attempts must be an int >= 1, got {max_attempts!r}"
            )
        registry = get_registry()
        strays = 0
        t_send = now
        attempt = 0
        while True:
            request = self.send(
                f"{kind}-request",
                src,
                dst,
                t_send,
                msg_id=f"{key}#{attempt}:req",
                enqueue=False,
            )
            expiry = t_send + timeout
            if request.delivered:
                verdict = self.send(
                    f"{kind}-verdict",
                    dst,
                    src,
                    request.deliver_at,
                    msg_id=f"{key}#{attempt}:ack",
                    enqueue=False,
                )
                if verdict.delivered:
                    if verdict.deliver_at <= expiry:
                        if registry.enabled:
                            registry.counter(
                                "channel_rpc_total",
                                "request/verdict exchanges, by outcome",
                                labels=("outcome",),
                            ).inc(outcome="ok")
                        return RpcOutcome(
                            ok=True,
                            attempts=attempt + 1,
                            completed_at=verdict.deliver_at,
                            stray_replies=strays,
                        )
                    strays += 1
            attempt += 1
            next_send = expiry + backoff.delay(attempt - 1, key=key)
            if attempt >= max_attempts or next_send >= deadline:
                gave_up = min(next_send, deadline)
                if registry.enabled:
                    registry.counter(
                        "channel_rpc_total",
                        "request/verdict exchanges, by outcome",
                        labels=("outcome",),
                    ).inc(outcome="failed")
                return RpcOutcome(
                    ok=False,
                    attempts=attempt,
                    gave_up_at=gave_up,
                    stray_replies=strays,
                )
            t_send = next_send

    # ------------------------------------------------------------------
    def _enqueue(self, record: WireRecord) -> None:
        self._pending_seq += 1
        heapq.heappush(
            self._pending, (record.deliver_at, self._pending_seq, record)
        )

    def _resolve(self, src: str, dst: str) -> _Link:
        """Read the ``src -> dst`` link off the model once: the same
        config, thresholds, partition cuts and draw keys the
        :class:`NetworkModel` oracles use per message."""
        network = self._network
        config = network.link(src, dst)
        link = _Link(
            delay=config.delay,
            spread=config.jitter + 1 if config.jitter else 0,
            loss=_threshold(config.loss) if config.loss else None,
            windows=tuple(
                (span.start, span.end)
                for span in network.partitions
                if (src, dst) in span.severed or (dst, src) in span.severed
            ),
            prefix=f"{network.seed}:{src}>{dst}:",
        )
        self._links[src, dst] = link
        return link

    def _account(
        self, record: WireRecord, delay: Optional[int] = None
    ) -> WireRecord:
        """Fold ``record`` into the stats and the log and return it;
        ``delay`` is a delivered record's one-way delay in ticks."""
        stats = self._stats
        fate = record.fate
        stats.sent += 1
        stats.by_kind[record.kind] = stats.by_kind.get(record.kind, 0) + 1
        if fate == "lost":
            stats.lost += 1
        elif fate == "severed":
            stats.severed += 1
        else:
            stats.delivered += 1
            stats.total_delay = _plus_delay(stats.total_delay, delay, record)
        self._log.append(record)
        registry = get_registry()
        if registry.enabled:
            registry.counter(
                "channel_messages_total",
                "wire records by message kind and fate",
                labels=("kind", "fate"),
            ).inc(kind=record.kind, fate=fate)
        return record
