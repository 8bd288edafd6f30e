"""Unit tests for the bounded ring-buffer time-series store."""

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cloud.tenants import LatencyHistogram
from repro.errors import ConfigError
from repro.sim.kernel import Simulator
from repro.telemetry import MetricsRegistry
from repro.telemetry.timeseries import (TIER_MULTIPLIERS, HistogramSeries,
                                        TimeSeries, TimeSeriesStore)


def filled(n=40, step=1.0, capacity=10):
    series = TimeSeries("s", step=step, capacity=capacity)
    for i in range(n):
        series.observe(i * step, float(i))
    return series


# -- TimeSeries --------------------------------------------------------------

def test_ring_overwrites_and_bounds_memory():
    series = filled(n=40, capacity=10)
    raw = series.tiers[0].buckets()
    assert len(raw) == 10                       # capacity, not 40
    assert [b.index for b in raw] == list(range(30, 40))
    assert raw[0].last == 30.0 and raw[-1].last == 39.0


def test_ring_grows_only_to_the_slots_it_used():
    series = TimeSeries("s", step=1.0, capacity=360)
    for i in range(3):
        series.observe(1000.0 + i, float(i))
    assert [len(t.slots) for t in series.tiers] == [3, 1, 1]
    assert [len(t.slots) for t in filled(n=40, capacity=10).tiers] \
        == [10, 4, 1]


def test_coarse_tier_is_exact_merge_of_fine():
    series = filled(n=40, capacity=10)
    # x10 tier: bucket 3 covers samples 30..39 — count 10, sum 345.
    ten = {b.index: b for b in series.tiers[1].buckets()}
    assert ten[3].count == 10
    assert ten[3].total == sum(range(30, 40))
    assert ten[3].min == 30.0 and ten[3].max == 39.0
    # x100 tier: everything in one bucket.
    hundred = series.tiers[2].buckets()
    assert len(hundred) == 1 and hundred[0].count == 40


def test_digest_stable_and_content_sensitive():
    a, b = filled(), filled()
    assert a.digest() == b.digest()
    b.observe(40.0, 40.0)
    assert a.digest() != b.digest()


def test_validation():
    with pytest.raises(ConfigError):
        TimeSeries("bad", step=0.0)
    with pytest.raises(ConfigError):
        TimeSeries("bad", capacity=1)
    with pytest.raises(ConfigError):
        TimeSeriesStore(step=-1.0)


# -- HistogramSeries ---------------------------------------------------------

def delta(*values):
    hist = LatencyHistogram()
    for value in values:
        hist.observe(value)
    return hist


def test_quantile_over_time_merges_covered_buckets():
    series = HistogramSeries("lat", step=10.0)
    series.observe(0.0, delta(1.0, 1.0, 1.0))
    series.observe(10.0, delta(100.0, 100.0, 100.0))
    fast = series.quantile_over_time(0.99, 0.0, 10.0)
    slow = series.quantile_over_time(0.99, 0.0, 20.0)
    assert fast < 2.0                           # only the fast interval
    assert slow >= 100.0                        # merge includes the spike
    assert series.merged_over(0.0, 20.0).count == 6
    assert series.quantile_over_time(0.5, 500.0, 600.0) == 0.0


def test_histogram_series_digest_tracks_content():
    a = HistogramSeries("lat")
    b = HistogramSeries("lat")
    a.observe(0.0, delta(1.0))
    b.observe(0.0, delta(1.0))
    assert a.digest() == b.digest()
    b.observe(5.0, delta(9.0))
    assert a.digest() != b.digest()
    assert a.digest() != TimeSeries("lat").digest()


def test_empty_delta_is_ignored():
    series = HistogramSeries("lat")
    series.observe(0.0, LatencyHistogram())
    assert series.merged_over(0.0, 10.0).count == 0


# -- TimeSeriesStore ---------------------------------------------------------

def test_store_record_and_query_roundtrip():
    store = TimeSeriesStore(step=5.0)
    store.record("q", 2.0, at=0.0)
    store.record("q", 4.0, at=5.0)
    store.record("q", 4.0, labels={"vm": "a"}, at=5.0)
    raw = store.get("q").range(0.0, 10.0, tier=0)
    assert [(start, b.last) for start, b in raw] == [(0.0, 2.0), (5.0, 4.0)]
    assert store.get("q", {"vm": "a"}).latest(1)[0].last == 4.0
    assert len(store) == 2
    assert store.get("q") is store.series("q")
    assert store.get("nope") is None


def test_store_digest_covers_every_series():
    a, b = TimeSeriesStore(), TimeSeriesStore()
    for s in (a, b):
        s.record("x", 1.0, at=0.0)
        s.record_histogram("h", delta(1.0), at=0.0)
    assert a.digest() == b.digest()
    b.record("y", 1.0, at=0.0)
    assert a.digest() != b.digest()


def test_registry_sampler_snapshots_counters_and_gauges():
    sim = Simulator()
    registry = MetricsRegistry()
    counter = registry.counter("jobs.done", "d", {"q": "a"})
    util = registry.counter("util", "u")
    registry.histogram("skipped.hist", "h").observe(0.5)
    store = TimeSeriesStore(sim, registry=registry, step=5.0)
    counter.inc(3)
    util.inc(0.5)
    assert store.sample_registry() == 2         # the histogram is skipped
    sim.run(until=12.0)
    store.sample_registry()
    series = store.get("jobs.done", {"q": "a"})
    assert series is not None and series.latest(1)[0].last == 3.0
    assert store.get("util").latest(1)[0].last == 0.5
    assert store.get("skipped.hist") is None    # histograms not sampled
    assert store.samples_taken == 4
    assert [b.last_at for b in series.tiers[0].buckets()] == [0.0, 12.0]


def test_sample_registry_requires_a_registry():
    with pytest.raises(ConfigError):
        TimeSeriesStore(Simulator()).sample_registry()


def test_tier_multipliers_shape():
    assert TIER_MULTIPLIERS == (1, 10, 100)
    series = TimeSeries("s", step=2.0)
    assert [t.width for t in series.tiers] == [2.0, 20.0, 200.0]
    assert math.isclose(series.tiers[0].retention_s(), 720.0)


# -- liveness, late samples and the index walk --------------------------------

def test_late_sample_does_not_evict_a_newer_bucket():
    series = TimeSeries("x", step=5, capacity=4)
    series.observe(100.0, 1.0)
    series.observe(0.0, 9.0)            # same raw slot as t=100 (20 % 4 == 0)
    assert series.latest(1)[0].last_at == 100.0
    assert [(s, b.last) for s, b in series.range(95.0, 105.0, tier=0)] \
        == [(100.0, 1.0)]
    assert series.late_samples == 1
    # The x100 tier still retains t=0 and records the sample.
    assert series.tiers[2].buckets()[0].count == 2
    assert series.tiers[0].buckets() == series.latest(1)


def test_late_histogram_delta_is_skipped_not_merged_over_newer():
    series = HistogramSeries("lat", step=5.0, capacity=4)
    series.observe(100.0, delta(1.0))
    series.observe(0.0, delta(50.0, 50.0))
    assert series.merged_over(95.0, 105.0, tier=0).count == 1
    assert series.merged_over(0.0, 5.0, tier=0).count == 0
    assert series.merged_over(0.0, 50.0, tier=1).count == 2   # x10 retains t=0


def model(samples, step, capacity):
    """Reference store: per tier ``(width, {index: [count, total, last,
    last_at]})`` of the live set, newest index tracked the slow way."""
    tiers = []
    for mult in TIER_MULTIPLIERS:
        width, held, top = step * mult, {}, -math.inf
        for at, value in samples:
            index = int(at // width)
            if index > top - capacity:          # else: late, refused
                top = max(top, index)
                agg = held.setdefault(index, [0, 0.0, 0.0, 0.0])
                agg[:] = agg[0] + 1, agg[1] + value, value, at
        tiers.append((width, {i: a for i, a in held.items()
                              if i > top - capacity}))
    return tiers


def model_range(tiers, t0, t1, tier):
    width, live = tiers[tier]
    return [(i * width, live[i]) for i in sorted(live)
            if not (i * width + width <= t0 or i * width >= t1)]


@given(step=st.sampled_from([1.0, 5.0, 0.1]),
       capacity=st.integers(2, 6),
       moves=st.lists(st.tuples(
           st.sampled_from([0.0, 0.5, 1.0, 1.0, 2.5, 7.0, 40.0, 900.0,
                            -1.0, -3.0, -30.0, -2000.0]),
           st.floats(-5.0, 5.0, allow_nan=False)), max_size=60),
       windows=st.lists(st.tuples(
           st.sampled_from([-math.inf, -1e9, -3.5, 0.0, 1.0, 2.0, 7.25]),
           st.sampled_from([0.0, 0.5, 1.0, 3.0, 12.0, 250.0, math.inf]),
           st.sampled_from([0, 1, 2])), min_size=1, max_size=6))
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_queries_match_filter_and_sort_reference(step, capacity, moves,
                                                 windows):
    """Dense, sparse (gaps beyond retention) and late samples; windows
    on bucket edges, infinite ends, every tier."""
    series = TimeSeries("p", step=step, capacity=capacity)
    samples, at = [], 0.0
    for gap, value in moves:
        at += gap * step
        samples.append((at, value))
        series.observe(at, value)
    tiers = model(samples, step, capacity)
    for ti, (_, live) in enumerate(tiers):
        ordered = [live[i] for i in sorted(live)]
        for n in (1, 2, capacity + 1):
            assert [[b.count, b.total, b.last, b.last_at]
                    for b in series.latest(n, tier=ti)] == ordered[-n:]
    for back, span, tier in windows:
        t0 = at + back * step
        t1 = t0 + span * step if back != -math.inf else span * step
        want = model_range(tiers, t0, t1, tier)
        got = series.range(t0, t1, tier)
        assert [(s, [b.count, b.total, b.last, b.last_at])
                for s, b in got] == want
