"""Unit tests for the observability layer: metric primitives, labeled
series, span trees, exporters, and the process-global registry.

The layer's three design constraints each get pinned here: zero
dependencies (a source scan asserts nothing under
``repro/observability`` imports instrumented packages), no-op by default
(the global registry is a :class:`NullRegistry` whose instruments do
nothing), and determinism (equal operation sequences against a frozen
clock yield byte-identical serialized snapshots).  The end-to-end claims
— <=5% overhead, byte-identical durability artifacts — live in
``benchmarks/bench_observability_overhead.py``.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path

import pytest

from repro.observability import (
    BoundCounter,
    BoundHistogram,
    Counter,
    Gauge,
    Histogram,
    LATENCY_BUCKETS,
    MetricsRegistry,
    NullRegistry,
    PhaseTimer,
    SpanRecord,
    get_registry,
    render_prometheus,
    set_registry,
    use_registry,
    write_jsonl,
    write_prometheus,
)
from repro.observability.metrics import MetricError


class SteppingClock:
    """Deterministic clock: each read advances by a fixed step."""

    def __init__(self, start: float = 0.0, step: float = 1.0) -> None:
        self.t = start
        self.step = step

    def __call__(self) -> float:
        value = self.t
        self.t += self.step
        return value


# ----------------------------------------------------------------------
# Counters and gauges
# ----------------------------------------------------------------------

class TestCounter:
    def test_unlabeled_accumulates(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(2.5)
        assert counter.value() == 3.5

    def test_labeled_series_are_independent(self):
        counter = Counter("c", label_names=("kind",))
        counter.inc(kind="a")
        counter.inc(3, kind="b")
        assert counter.value(kind="a") == 1
        assert counter.value(kind="b") == 3

    def test_empty_label_call_is_the_unlabeled_series(self):
        # labels() with no kwargs and plain inc() address the same
        # single series of an unlabeled instrument: key () for both.
        counter = Counter("c")
        counter.inc(2)
        bound = counter.labels()
        assert isinstance(bound, BoundCounter)
        bound.inc(3)
        assert counter.value() == 5

    def test_bound_series_shares_storage_with_kwargs_path(self):
        counter = Counter("c", label_names=("kind",))
        bound = counter.labels(kind="a")
        bound.inc()
        counter.inc(kind="a")
        assert counter.value(kind="a") == 2

    def test_negative_increment_rejected_on_both_paths(self):
        counter = Counter("c")
        with pytest.raises(MetricError):
            counter.inc(-1)
        with pytest.raises(MetricError):
            counter.labels().inc(-1)

    def test_missing_and_extra_labels_rejected(self):
        counter = Counter("c", label_names=("kind",))
        with pytest.raises(MetricError):
            counter.inc()  # missing 'kind'
        with pytest.raises(MetricError):
            counter.inc(kind="a", extra="b")
        with pytest.raises(MetricError):
            counter.inc(wrong="a")

    def test_label_values_stringified(self):
        counter = Counter("c", label_names=("code",))
        counter.inc(code=404)
        assert counter.value(code="404") == 1


class TestGauge:
    def test_set_inc_dec(self):
        gauge = Gauge("g")
        gauge.set(10)
        gauge.inc(5)
        gauge.inc(-2)
        assert gauge.value() == 13

    def test_gauge_goes_negative(self):
        gauge = Gauge("g")
        gauge.inc(-4)
        assert gauge.value() == -4


# ----------------------------------------------------------------------
# Histograms: upper-inclusive bucket boundaries
# ----------------------------------------------------------------------

def _bucket_counts(hist, **labels):
    """Per-bucket counts of one series, ``+Inf`` last, as its snapshot
    renders them."""
    for series in hist.snapshot()["series"]:
        if series["labels"] == {k: str(v) for k, v in labels.items()}:
            return tuple(series["counts"])
    raise AssertionError(f"no series {labels!r}")


class TestHistogramBuckets:
    def test_exact_integer_bound_lands_in_its_bucket(self):
        hist = Histogram("h", buckets=(1, 2, 5))
        for value in (1, 2, 5):
            hist.observe(value)
        # le-semantics: a sample equal to a bound belongs to that bound's
        # bucket, not the next one up; nothing overflows to +Inf.
        assert _bucket_counts(hist) == (1, 1, 1, 0)

    def test_exact_float_bound_lands_in_its_bucket(self):
        hist = Histogram("h", buckets=(0.1, 0.5, 1.0))
        hist.observe(0.5)
        hist.observe(0.1)
        assert _bucket_counts(hist) == (1, 1, 0, 0)

    def test_between_bounds_rounds_up(self):
        hist = Histogram("h", buckets=(1, 2, 5))
        hist.observe(1.0001)
        hist.observe(4.9999)
        assert _bucket_counts(hist) == (0, 1, 1, 0)

    def test_above_top_bound_overflows_to_inf(self):
        hist = Histogram("h", buckets=(1, 2))
        hist.observe(2.1)
        assert _bucket_counts(hist) == (0, 0, 1)

    def test_cumulative_counts_end_at_count(self):
        hist = Histogram("h", buckets=(1, 2, 5))
        for value in (0.5, 1, 3, 100):
            hist.observe(value)
        cumulative = tuple(itertools.accumulate(_bucket_counts(hist)))
        assert cumulative == (2, 2, 3, 4)
        assert cumulative[-1] == hist.count()

    def test_sum_and_count_are_exact(self):
        hist = Histogram("h", buckets=(1,))
        hist.observe(0.25)
        hist.observe(3)
        assert hist.sum() == 3.25
        assert hist.count() == 2

    def test_labeled_series_isolated(self):
        hist = Histogram("h", label_names=("phase",), buckets=(1, 2))
        hist.observe(0.5, phase="offer")
        hist.observe(1.5, phase="claim")
        assert _bucket_counts(hist, phase="offer") == (1, 0, 0)
        assert _bucket_counts(hist, phase="claim") == (0, 1, 0)

    def test_bound_series_shares_slot(self):
        hist = Histogram("h", label_names=("phase",), buckets=(1,))
        bound = hist.labels(phase="offer")
        assert isinstance(bound, BoundHistogram)
        bound.observe(0.5)
        hist.observe(0.25, phase="offer")
        assert hist.count(phase="offer") == 2
        assert hist.sum(phase="offer") == 0.75

    def test_empty_buckets_rejected(self):
        with pytest.raises(MetricError):
            Histogram("h", buckets=())

    def test_unsorted_or_duplicate_buckets_rejected(self):
        with pytest.raises(MetricError):
            Histogram("h", buckets=(2, 1))
        with pytest.raises(MetricError):
            Histogram("h", buckets=(1, 1, 2))

    def test_default_buckets_are_latency_scale(self):
        hist = Histogram("h")
        assert hist.buckets == LATENCY_BUCKETS


# ----------------------------------------------------------------------
# Registry: get-or-create, signature conflicts, snapshots
# ----------------------------------------------------------------------

class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        first = registry.counter("c", "help", labels=("kind",))
        second = registry.counter("c", "ignored", labels=("kind",))
        assert first is second

    def test_kind_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(MetricError):
            registry.gauge("x")

    def test_label_set_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x", labels=("a",))
        with pytest.raises(MetricError):
            registry.counter("x", labels=("a", "b"))

    def test_bucket_layout_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.histogram("h", buckets=(1, 2))
        with pytest.raises(MetricError):
            registry.histogram("h", buckets=(1, 2, 3))

    def test_snapshot_deterministic_under_frozen_clock(self):
        def run_once():
            registry = MetricsRegistry(clock=SteppingClock())
            registry.counter("c", "events", labels=("kind",)).inc(kind="b")
            registry.counter("c", "events", labels=("kind",)).inc(kind="a")
            registry.histogram("h", buckets=(1, 2)).observe(1.5)
            with registry.span("outer"):
                with registry.span("inner"):
                    pass
            return json.dumps(registry.snapshot(), sort_keys=True)

        assert run_once() == run_once()

    def test_snapshot_orders_families_and_series(self):
        registry = MetricsRegistry()
        registry.counter("zzz").inc()
        counter = registry.counter("aaa", labels=("k",))
        counter.inc(k="b")
        counter.inc(k="a")
        snapshot = registry.snapshot()
        assert [f["name"] for f in snapshot["metrics"]] == ["aaa", "zzz"]
        series = snapshot["metrics"][0]["series"]
        assert [s["labels"]["k"] for s in series] == ["a", "b"]


# ----------------------------------------------------------------------
# Spans: nesting, exception unwinding, phase timers
# ----------------------------------------------------------------------

class TestSpans:
    def test_nesting_builds_a_tree(self):
        registry = MetricsRegistry(clock=SteppingClock())
        with registry.span("run"):
            with registry.span("offer"):
                pass
            with registry.span("claim"):
                pass
        (root,) = registry.span_roots
        assert root.name == "run"
        assert [child.name for child in root.children] == ["offer", "claim"]
        assert not root.children[0].children

    def test_durations_come_from_registry_clock(self):
        registry = MetricsRegistry(clock=SteppingClock(step=1.0))
        with registry.span("outer"):
            with registry.span("inner"):
                pass
        (outer,) = registry.span_roots
        (inner,) = outer.children
        # Clock reads: outer-start=0, inner-start=1, inner-end=2,
        # outer-end=3.
        assert (outer.start, outer.end) == (0.0, 3.0)
        assert inner.duration == 1.0

    def test_exception_closes_span_flags_error_and_propagates(self):
        registry = MetricsRegistry(clock=SteppingClock())
        with pytest.raises(RuntimeError):
            with registry.span("doomed"):
                raise RuntimeError("boom")
        (root,) = registry.span_roots
        assert root.error
        assert root.end is not None
        assert registry._span_stack == []

    def test_exception_unwinds_nested_spans(self):
        registry = MetricsRegistry(clock=SteppingClock())
        with pytest.raises(ValueError):
            with registry.span("outer"):
                with registry.span("inner"):
                    raise ValueError("deep")
        (outer,) = registry.span_roots
        (inner,) = outer.children
        assert inner.error and outer.error
        assert inner.end is not None and outer.end is not None
        assert registry._span_stack == []

    def test_open_span_duration_is_zero(self):
        record = SpanRecord("open", start=1.0)
        assert record.duration == 0.0
        assert record.to_dict()["end"] is None

    def test_phase_timer_feeds_histogram_and_span_tree(self):
        registry = MetricsRegistry(clock=SteppingClock(step=0.5))
        series = registry.histogram(
            "phase_seconds", labels=("phase",), buckets=(1, 2)
        )
        timer = PhaseTimer(registry, series.labels(phase="claim"), "claim")
        with registry.span("run"):
            with timer:
                pass
            with timer:  # reusable: second use is a fresh sibling span
                pass
        (root,) = registry.span_roots
        assert [child.name for child in root.children] == ["claim", "claim"]
        assert series.count(phase="claim") == 2
        assert series.sum(phase="claim") == 1.0  # two 0.5s steps

    def test_phase_timer_exception_skips_observation(self):
        registry = MetricsRegistry(clock=SteppingClock())
        series = registry.histogram("h", buckets=(1,))
        timer = PhaseTimer(registry, series.labels(), "phase")
        with pytest.raises(RuntimeError):
            with timer:
                raise RuntimeError("boom")
        (root,) = registry.span_roots
        assert root.error
        assert series.count() == 0  # error exits don't pollute latency
        assert registry._span_stack == []


# ----------------------------------------------------------------------
# Global registry plumbing and the null default
# ----------------------------------------------------------------------

class TestGlobalRegistry:
    def test_default_is_disabled(self):
        registry = get_registry()
        assert isinstance(registry, NullRegistry)
        assert not registry.enabled

    def test_use_registry_installs_and_restores(self):
        live = MetricsRegistry()
        before = get_registry()
        with use_registry(live) as installed:
            assert installed is live
            assert get_registry() is live
        assert get_registry() is before

    def test_use_registry_restores_on_exception(self):
        before = get_registry()
        with pytest.raises(RuntimeError):
            with use_registry(MetricsRegistry()):
                raise RuntimeError("boom")
        assert get_registry() is before

    def test_set_registry_none_restores_null(self):
        previous = set_registry(MetricsRegistry())
        try:
            assert get_registry().enabled
            set_registry(None)
            assert isinstance(get_registry(), NullRegistry)
        finally:
            set_registry(previous)

    def test_null_instruments_accept_everything_and_record_nothing(self):
        registry = NullRegistry()
        counter = registry.counter("c", labels=("kind",))
        counter.inc(kind="anything")
        counter.labels(kind="x").inc(5)
        registry.gauge("g").set(3)
        registry.histogram("h").observe(0.5)
        with registry.span("s") as record:
            assert record is None
        assert registry.now() == 0.0
        assert counter.value() == 0
        assert registry.snapshot() == {"metrics": [], "spans": []}


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------

def make_populated_registry() -> MetricsRegistry:
    registry = MetricsRegistry(clock=SteppingClock())
    registry.counter("events_total", "events by kind", labels=("kind",)).inc(
        3, kind="offer"
    )
    registry.gauge("victims", "live victims").set(2)
    registry.histogram(
        "check_seconds", "check latency", buckets=(0.1, 1.0)
    ).observe(0.1)
    with registry.span("run"):
        with registry.span("claim"):
            pass
    return registry


class TestExporters:
    def test_jsonl_round_trips_families_and_spans(self, tmp_path):
        path = write_jsonl(
            make_populated_registry().snapshot(), tmp_path / "m.jsonl"
        )
        records = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        kinds = [record["record"] for record in records]
        assert kinds == ["metric", "metric", "metric", "span"]
        by_name = {r["name"]: r for r in records if r["record"] == "metric"}
        assert by_name["events_total"]["series"][0]["value"] == 3
        span = records[-1]
        assert span["name"] == "run"
        assert span["children"][0]["name"] == "claim"

    def test_jsonl_empty_snapshot_writes_empty_file(self, tmp_path):
        path = write_jsonl(
            {"metrics": [], "spans": []}, tmp_path / "empty.jsonl"
        )
        assert path.read_text() == ""

    def test_prometheus_rendering(self):
        text = render_prometheus(make_populated_registry().snapshot())
        assert "# TYPE events_total counter" in text
        assert 'events_total{kind="offer"} 3' in text
        assert "# HELP victims live victims" in text
        assert "victims 2" in text
        # Upper-inclusive: the 0.1 sample counts in the le="0.1" bucket.
        assert 'check_seconds_bucket{le="0.1"} 1' in text
        assert 'check_seconds_bucket{le="+Inf"} 1' in text
        assert "check_seconds_sum 0.1" in text
        assert "check_seconds_count 1" in text
        # Span trees have no Prometheus form.
        assert "run" not in text

    def test_prometheus_escapes_label_values(self):
        registry = MetricsRegistry()
        registry.counter("c", labels=("path",)).inc(
            path='a\\b"c\nd'
        )
        text = render_prometheus(registry.snapshot())
        assert 'path="a\\\\b\\"c\\nd"' in text
        assert "\n\n" not in text  # the raw newline never leaks through

    def test_prometheus_escapes_help_text(self):
        registry = MetricsRegistry()
        registry.counter("c", "line one\nline two").inc()
        text = render_prometheus(registry.snapshot())
        assert "# HELP c line one\\nline two" in text

    def test_write_prometheus_writes_rendered_text(self, tmp_path):
        snapshot = make_populated_registry().snapshot()
        path = write_prometheus(snapshot, tmp_path / "m.prom")
        assert path.read_text() == render_prometheus(snapshot)


# ----------------------------------------------------------------------
# Dependency direction: observability imports nothing it instruments
# ----------------------------------------------------------------------

def test_observability_package_has_no_instrumented_imports():
    """Thin wrapper: the scan now lives in repro.analysis.lint.layering
    (the declarative layering map + the 'layering' rule); this test keeps
    the original coverage by invoking the framework on the package."""
    from repro.analysis.lint import Analyzer, get_rules

    package_dir = (
        Path(__file__).resolve().parent.parent
        / "src" / "repro" / "observability"
    )
    analyzer = Analyzer(get_rules(["layering"]))
    findings, checked = analyzer.check_paths([package_dir])
    assert checked >= 4, "observability sources went missing"
    assert findings == [], "\n".join(f.render() for f in findings)


def test_layering_rule_rejects_observability_importing_instrumented_code():
    """The property the old string scan enforced, now as a positive
    detection test: an observability module importing what it instruments
    must be flagged."""
    from repro.analysis.lint import Analyzer, get_rules

    analyzer = Analyzer(get_rules(["layering"]))
    findings = analyzer.check_source(
        "from repro.system import OpenSystemSimulator\n",
        "src/repro/observability/bad.py",
    )
    assert [f.rule for f in findings] == ["layering"]
    assert "instruments" in findings[0].message
