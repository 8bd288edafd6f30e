"""Unit tests for the labelled metrics registry."""

import pytest

from repro.errors import ConfigError
from repro.telemetry import Counter, LatencyHistogram, MetricsRegistry


def test_counter_accumulates_and_rejects_negative():
    registry = MetricsRegistry()
    counter = registry.counter("jobs.done", "completed jobs")
    counter.inc()
    counter.inc(4.0)
    assert counter.value == registry.sum("jobs.done") == 5.0
    with pytest.raises(ConfigError):
        counter.inc(-1.0)


def test_labels_create_independent_children():
    registry = MetricsRegistry()
    registry.counter("bytes", labels={"vm": "a"}).inc(10)
    registry.counter("bytes", labels={"vm": "b"}).inc(32)
    children = {labels: child.value
                for labels, child in registry.families["bytes"].items()}
    assert children == {(("vm", "a"),): 10.0, (("vm", "b"),): 32.0}
    assert registry.sum("bytes") == 42.0


def test_label_order_is_irrelevant():
    registry = MetricsRegistry()
    counter = registry.counter("m", labels={"a": "1", "b": "2"})
    assert registry.counter("m", labels={"b": "2", "a": "1"}) is counter
    assert len(registry.families["m"].children) == 1


def test_kind_mismatch_raises():
    registry = MetricsRegistry()
    registry.counter("x")
    with pytest.raises(ConfigError):
        registry.histogram("x")


def test_registry_histogram_is_a_latency_histogram():
    registry = MetricsRegistry()
    histogram = registry.histogram("task.duration", "secs", {"job": "wc"})
    assert isinstance(histogram, LatencyHistogram)
    for value in (0.5, 5.0, 50.0, 500.0):
        histogram.observe(value)
    assert registry.histogram("task.duration",
                              labels={"job": "wc"}) is histogram
    assert histogram.count == 4 == sum(histogram.counts)
    assert histogram.total == pytest.approx(555.5)
    assert histogram.min_seen == 0.5
    assert histogram.max_seen == 500.0
    assert histogram.mean == pytest.approx(138.875)
    # The 0-quantile is the first sample's bin, never an edge below min.
    assert histogram.min_seen <= histogram.quantile(0.0) < 1.0
    assert histogram.quantile(1.0) == 500.0


@pytest.mark.parametrize("bad", [-1.0, float("nan")])
def test_registry_histogram_rejects_bad_values_untouched(bad):
    histogram = MetricsRegistry().histogram("h")
    histogram.observe(3.0)
    before = (list(histogram.counts), histogram.count, histogram.total,
              histogram.min_seen, histogram.max_seen)
    with pytest.raises(ConfigError):
        histogram.observe(bad)
    assert (list(histogram.counts), histogram.count, histogram.total,
            histogram.min_seen, histogram.max_seen) == before


def test_registry_sum_reads_without_creating():
    """Reading a family that was never recorded creates nothing."""
    registry = MetricsRegistry()
    registry.counter("g").inc(7.0)
    assert registry.sum("g") == 7.0
    assert registry.sum("missing") == 0.0
    assert list(registry.families) == ["g"]


def test_counter_type():
    registry = MetricsRegistry()
    assert isinstance(registry.counter("c"), Counter)
