"""Metric primitives and the registry that owns them.

Three instrument kinds, all supporting labeled series:

* :class:`Counter` — monotonically increasing totals (events applied,
  admissions by outcome, journal appends);
* :class:`Gauge` — a value that goes both ways (live victim count,
  committed-slack series size);
* :class:`Histogram` — sample distributions with Prometheus ``le``
  (less-or-equal, upper-inclusive) bucket semantics, plus exact sum and
  count (check latencies, backoff delays, checkpoint write seconds).

A :class:`MetricsRegistry` is the process-wide owner: instruments are
get-or-create by name (re-registration with a different kind, label set,
or bucket layout is an error, never a silent aliasing), spans nest via
the registry's span stack, and :meth:`MetricsRegistry.snapshot` renders
everything into one deterministic, JSON-ready structure — deterministic
meaning equal operation sequences against equal clocks yield equal
snapshots, byte for byte once serialized.

The module-level default is a :class:`NullRegistry` whose instruments
and spans are shared no-op singletons: uninstrumented programs pay one
dict lookup plus an attribute check per hook and allocate nothing.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.observability.spans import NULL_SPAN, NullSpanContext, SpanContext, SpanRecord

#: Default histogram buckets for sub-second latencies (seconds).  The
#: top bucket is implicit ``+Inf``; these bounds cover microsecond-scale
#: slack checks up to multi-second checkpoint writes.
LATENCY_BUCKETS: Tuple[float, ...] = (
    1e-6, 5e-6, 1e-5, 5e-5, 1e-4, 5e-4,
    1e-3, 5e-3, 1e-2, 5e-2, 0.1, 0.5, 1.0, 5.0,
)

LabelNames = Tuple[str, ...]
SeriesKey = Tuple[str, ...]


class MetricError(ValueError):
    """Instrument misuse: kind/label/bucket mismatch or bad label set."""


class Instrument:
    """Common machinery: a named family of labeled series."""

    kind = "untyped"

    def __init__(self, name: str, help: str, label_names: Sequence[str]) -> None:
        self.name = name
        self.help = help
        self.label_names: LabelNames = tuple(label_names)

    # ------------------------------------------------------------------
    def _key(self, labels: Dict[str, Any]) -> SeriesKey:
        """Resolve ``labels`` to a series key.

        The empty label set and "no labels at all" are the *same* series:
        an unlabeled instrument has exactly one series, keyed ``()``.
        This is per-sample hot-path code: the happy case is one length
        check plus direct lookups, no sorting.
        """
        names = self.label_names
        if not labels:
            if not names:
                return ()
        elif len(labels) == len(names):
            try:
                return tuple(str(labels[name]) for name in names)
            except KeyError:
                pass
        raise MetricError(
            f"{self.name}: expected labels {sorted(self.label_names)}, "
            f"got {sorted(labels)}"
        )

    def _labels_of(self, key: SeriesKey) -> Dict[str, str]:
        return dict(zip(self.label_names, key))

    def signature(self) -> Tuple[Any, ...]:
        """Identity checked on re-registration under the same name."""
        return (self.kind, self.label_names)

    # Overridden per kind.
    def _series_snapshot(self) -> List[Dict[str, Any]]:  # pragma: no cover
        raise NotImplementedError

    def snapshot(self) -> Dict[str, Any]:
        """This family as one deterministic JSON-ready dict."""
        return {
            "name": self.name,
            "kind": self.kind,
            "help": self.help,
            "label_names": list(self.label_names),
            "series": sorted(
                self._series_snapshot(),
                key=lambda s: tuple(sorted(s["labels"].items())),
            ),
        }


class BoundCounter:
    """One pre-resolved counter series: label validation paid at bind
    time, so the per-sample cost is a single dict update.  Hot loops
    bind once (``counter.labels(ltype=...)``) and ``inc`` per sample."""

    __slots__ = ("_name", "_values", "_series_key")

    def __init__(self, name: str, values: Dict[SeriesKey, float], key: SeriesKey) -> None:
        self._name = name
        self._values = values
        self._series_key = key

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise MetricError(
                f"{self._name}: counters only go up, got {amount!r}"
            )
        values = self._values
        key = self._series_key
        values[key] = values.get(key, 0) + amount


class Counter(Instrument):
    """Monotonically increasing total per labeled series."""

    kind = "counter"

    def __init__(self, name: str, help: str = "", label_names: Sequence[str] = ()) -> None:
        super().__init__(name, help, label_names)
        self._values: Dict[SeriesKey, float] = {}

    def inc(self, amount: float = 1, **labels: Any) -> None:
        if amount < 0:
            raise MetricError(
                f"{self.name}: counters only go up, got {amount!r}"
            )
        key = self._key(labels)
        self._values[key] = self._values.get(key, 0) + amount

    def labels(self, **labels: Any) -> BoundCounter:
        """Bind one series for repeated cheap :meth:`BoundCounter.inc`."""
        return BoundCounter(self.name, self._values, self._key(labels))

    def value(self, **labels: Any) -> float:
        return self._values.get(self._key(labels), 0)

    def _series_snapshot(self) -> List[Dict[str, Any]]:
        return [
            {"labels": self._labels_of(key), "value": value}
            for key, value in self._values.items()
        ]


class Gauge(Instrument):
    """A value that can rise and fall, per labeled series."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "", label_names: Sequence[str] = ()) -> None:
        super().__init__(name, help, label_names)
        self._values: Dict[SeriesKey, float] = {}

    def set(self, value: float, **labels: Any) -> None:
        self._values[self._key(labels)] = value

    def inc(self, amount: float = 1, **labels: Any) -> None:
        key = self._key(labels)
        self._values[key] = self._values.get(key, 0) + amount

    def value(self, **labels: Any) -> float:
        return self._values.get(self._key(labels), 0)

    def _series_snapshot(self) -> List[Dict[str, Any]]:
        return [
            {"labels": self._labels_of(key), "value": value}
            for key, value in self._values.items()
        ]


class BoundHistogram:
    """One pre-resolved histogram series: the slot list is shared with
    the parent by reference, so per-sample cost is a bisect plus three
    in-place updates."""

    __slots__ = ("_buckets", "_slot")

    def __init__(self, buckets: Tuple[float, ...], slot: List[Any]) -> None:
        self._buckets = buckets
        self._slot = slot

    def observe(self, value: float) -> None:
        slot = self._slot
        slot[0][bisect_left(self._buckets, value)] += 1
        slot[1] += value
        slot[2] += 1


class Histogram(Instrument):
    """Sample distribution with upper-inclusive (``le``) buckets.

    A sample equal to a bucket bound lands *in* that bucket — exact int
    samples on integer bounds included — matching Prometheus semantics
    so the cumulative export is directly scrapeable.  The final
    ``+Inf`` bucket is implicit and always equals ``count``.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        label_names: Sequence[str] = (),
        buckets: Sequence[float] = LATENCY_BUCKETS,
    ) -> None:
        super().__init__(name, help, label_names)
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise MetricError(f"{name}: histograms need at least one bucket")
        if list(bounds) != sorted(set(bounds)):
            raise MetricError(
                f"{name}: bucket bounds must be strictly increasing, got {bounds}"
            )
        self.buckets: Tuple[float, ...] = bounds
        # per series: ([per-bucket counts..., overflow], sum, count)
        self._series: Dict[SeriesKey, List[Any]] = {}

    def signature(self) -> Tuple[Any, ...]:
        return (self.kind, self.label_names, self.buckets)

    def _slot(self, labels: Dict[str, Any]) -> List[Any]:
        key = self._key(labels)
        slot = self._series.get(key)
        if slot is None:
            slot = [[0] * (len(self.buckets) + 1), 0.0, 0]
            self._series[key] = slot
        return slot

    def observe(self, value: float, **labels: Any) -> None:
        slot = self._slot(labels)
        # bisect_left on the bound array: value == bound resolves to the
        # bound's own index, i.e. the upper-inclusive bucket.
        index = bisect_left(self.buckets, value)
        slot[0][index] += 1
        slot[1] += value
        slot[2] += 1

    def labels(self, **labels: Any) -> BoundHistogram:
        """Bind one series for repeated cheap :meth:`BoundHistogram.observe`."""
        return BoundHistogram(self.buckets, self._slot(labels))

    def count(self, **labels: Any) -> int:
        slot = self._series.get(self._key(labels))
        return slot[2] if slot else 0

    def sum(self, **labels: Any) -> float:
        slot = self._series.get(self._key(labels))
        return slot[1] if slot else 0.0

    def _series_snapshot(self) -> List[Dict[str, Any]]:
        rendered = []
        for key, (counts, total, count) in self._series.items():
            rendered.append(
                {
                    "labels": self._labels_of(key),
                    "buckets": list(self.buckets),
                    "counts": list(counts),
                    "sum": total,
                    "count": count,
                }
            )
        return rendered


# ----------------------------------------------------------------------
# Registries
# ----------------------------------------------------------------------

class MetricsRegistry:
    """Owner of all instruments and the span tree for one process/run.

    ``clock`` is injectable (frozen or stepped in tests; monotonic in
    production) and is the *only* time source observability ever reads —
    simulation time stays untouched, wall time stays out of simulation
    state.
    """

    enabled = True

    def __init__(self, clock=time.monotonic) -> None:
        self._clock = clock
        self._instruments: Dict[str, Instrument] = {}
        self._span_roots: List[SpanRecord] = []
        self._span_stack: List[SpanRecord] = []

    # ------------------------------------------------------------------
    def now(self) -> float:
        """The registry clock — for manual interval timing at hooks."""
        return self._clock()

    def _register(self, name: str, signature: Tuple[Any, ...], factory) -> Instrument:
        # Get-or-create is hot-path (instrumented code re-requests by
        # name at call sites): verify identity against the cheap
        # signature tuple instead of constructing a throwaway instrument.
        existing = self._instruments.get(name)
        if existing is not None:
            if existing.signature() != signature:
                raise MetricError(
                    f"{name}: already registered as {existing.signature()}, "
                    f"re-requested as {signature}"
                )
            return existing
        fresh = factory()
        self._instruments[name] = fresh
        return fresh

    def counter(
        self, name: str, help: str = "", labels: Sequence[str] = ()
    ) -> Counter:
        return self._register(
            name,
            ("counter", tuple(labels)),
            lambda: Counter(name, help, labels),
        )

    def gauge(
        self, name: str, help: str = "", labels: Sequence[str] = ()
    ) -> Gauge:
        return self._register(
            name, ("gauge", tuple(labels)), lambda: Gauge(name, help, labels)
        )

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        buckets: Sequence[float] = LATENCY_BUCKETS,
    ) -> Histogram:
        return self._register(
            name,
            ("histogram", tuple(labels), tuple(float(b) for b in buckets)),
            lambda: Histogram(name, help, labels, buckets),
        )

    def instruments(self) -> List[Instrument]:
        return [self._instruments[name] for name in sorted(self._instruments)]

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def span(self, name: str) -> SpanContext:
        """Open a timed region; nests under any span already active."""
        return SpanContext(self, name)

    def _open_span(self, name: str) -> SpanRecord:
        record = SpanRecord(name=name, start=self._clock())
        if self._span_stack:
            self._span_stack[-1].children.append(record)
        else:
            self._span_roots.append(record)
        self._span_stack.append(record)
        return record

    def _close_span(self, record: SpanRecord, *, error: bool) -> None:
        record.end = self._clock()
        record.error = error
        # Exception unwinding may close an ancestor while descendants
        # are still on the stack (generators, premature closes): pop
        # through to the record itself so the stack never wedges.
        while self._span_stack:
            top = self._span_stack.pop()
            if top is record:
                break

    @property
    def span_roots(self) -> Tuple[SpanRecord, ...]:
        return tuple(self._span_roots)

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """All metric families plus span trees, deterministically ordered."""
        return {
            "metrics": [
                instrument.snapshot() for instrument in self.instruments()
            ],
            "spans": [root.to_dict() for root in self._span_roots],
        }

    def reset(self) -> None:
        """Drop every instrument, series, and span (tests, fresh runs)."""
        self._instruments.clear()
        self._span_roots.clear()
        self._span_stack.clear()


class PhaseTimer:
    """A reusable timed-region context manager bound to one registry and
    one histogram series: each use opens a child span and feeds the
    span's duration to the series on clean exit.

    This is the per-slice hot path of instrumented loops (the simulator
    enters one of these up to four times per slice), so it touches the
    registry's span stack directly instead of going through
    :meth:`MetricsRegistry.span` — every layer of dispatch here is paid
    hundreds of times per run against a <=5% overhead budget.  Reuse is
    safe for non-reentrant regions (a phase never nests inside itself).
    """

    __slots__ = ("_registry", "_series", "_name", "_record")

    def __init__(
        self, registry: "MetricsRegistry", series: BoundHistogram, name: str
    ) -> None:
        self._registry = registry
        self._series = series
        self._name = name

    def __enter__(self) -> SpanRecord:
        registry = self._registry
        record = SpanRecord(self._name, registry._clock())
        stack = registry._span_stack
        if stack:
            stack[-1].children.append(record)
        else:
            registry._span_roots.append(record)
        stack.append(record)
        self._record = record
        return record

    def __exit__(self, exc_type, _exc, _tb) -> bool:
        registry = self._registry
        record = self._record
        record.end = registry._clock()
        # Same unwinding contract as _close_span: pop through to the
        # record so exception paths never wedge the stack.
        stack = registry._span_stack
        while stack:
            if stack.pop() is record:
                break
        if exc_type is None:
            self._series.observe(record.end - record.start)
        else:
            record.error = True
        return False


class _NullInstrument:
    """Accepts the whole instrument surface and does nothing."""

    __slots__ = ()

    def labels(self, **labels: Any) -> "_NullInstrument":
        return self

    def inc(self, amount: float = 1, **labels: Any) -> None:
        pass

    def set(self, value: float, **labels: Any) -> None:
        pass

    def observe(self, value: float, **labels: Any) -> None:
        pass

    def value(self, **labels: Any) -> float:
        return 0

    def count(self, **labels: Any) -> int:
        return 0

    def sum(self, **labels: Any) -> float:
        return 0.0


_NULL_INSTRUMENT = _NullInstrument()


class NullRegistry(MetricsRegistry):
    """The disabled registry: every hook is a shared no-op singleton.

    ``enabled`` is False so hot paths can skip even the cheap work of
    computing a label value or reading the clock.
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__(clock=lambda: 0.0)

    def now(self) -> float:
        return 0.0

    def counter(self, name: str, help: str = "", labels: Sequence[str] = ()):
        return _NULL_INSTRUMENT

    def gauge(self, name: str, help: str = "", labels: Sequence[str] = ()):
        return _NULL_INSTRUMENT

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        buckets: Sequence[float] = LATENCY_BUCKETS,
    ):
        return _NULL_INSTRUMENT

    def span(self, name: str) -> NullSpanContext:
        return NULL_SPAN

    def snapshot(self) -> Dict[str, Any]:
        return {"metrics": [], "spans": []}


# ----------------------------------------------------------------------
# The process-global registry (no-op unless somebody installs one)
# ----------------------------------------------------------------------

_REGISTRY: MetricsRegistry = NullRegistry()


def get_registry() -> MetricsRegistry:
    """The current process-global registry (a no-op one by default)."""
    return _REGISTRY


def set_registry(registry: Optional[MetricsRegistry]) -> MetricsRegistry:
    """Install ``registry`` globally (None restores the no-op default);
    returns the previously installed registry so callers can restore it."""
    global _REGISTRY
    previous = _REGISTRY
    _REGISTRY = registry if registry is not None else NullRegistry()
    return previous


@contextmanager
def use_registry(registry: Optional[MetricsRegistry]) -> Iterator[MetricsRegistry]:
    """Scoped :func:`set_registry`: restores the previous registry on exit."""
    previous = set_registry(registry)
    try:
        yield get_registry()
    finally:
        set_registry(previous)
