"""Tenant fleet, quotas and the log-binned latency histogram."""

import math

import pytest

from repro.cloud import LatencyHistogram, TenantRegistry, TenantSpec
from repro.cloud.tenants import PRIORITIES
from repro.errors import ConfigError
from repro.sim.rng import RngRegistry
from repro.telemetry.metrics import HI, LO, N_BINS


def test_spec_validation_and_ranks():
    with pytest.raises(ConfigError):
        TenantSpec(name="t", priority="platinum")
    with pytest.raises(ConfigError):
        TenantSpec(name="t", weight=0.0)
    with pytest.raises(ConfigError):
        TenantSpec(name="t", quota_inflight=0)
    ranks = [TenantSpec(name="t", priority=p).priority_rank
             for p in PRIORITIES]
    assert ranks == [0, 1, 2]  # interactive most important


def test_synthetic_fleet_is_deterministic():
    a = TenantRegistry.synthetic(40, RngRegistry(11).stream("fleet"))
    b = TenantRegistry.synthetic(40, RngRegistry(11).stream("fleet"))
    assert a.names == b.names
    for name in a.names:
        assert a.lookup(name)[0] == b.lookup(name)[0]
    c = TenantRegistry.synthetic(40, RngRegistry(12).stream("fleet"))
    assert any(a.lookup(n)[0].priority != c.lookup(n)[0].priority
               for n in a.names)


def test_synthetic_fleet_shape():
    fleet = TenantRegistry.synthetic(60, RngRegistry(0).stream("fleet"),
                                     quota_scale=100.0)
    specs = list(fleet)
    # Zipf-ish: first tenant heaviest, weights strictly decreasing.
    weights = [s.weight for s in specs]
    assert weights == sorted(weights, reverse=True)
    assert weights[0] == 1.0
    # Quotas follow weight but keep the flat noise headroom.
    assert specs[0].quota_inflight > specs[-1].quota_inflight
    assert specs[-1].quota_inflight >= 2
    # All three priority classes occur in a 60-tenant fleet.
    assert {s.priority for s in specs} == set(PRIORITIES)


def test_registry_accounting_roundtrip():
    fleet = TenantRegistry.synthetic(5, RngRegistry(3).stream("fleet"))
    name = fleet.names[0]
    spec, stats = fleet.lookup(name)
    assert spec.name == name
    stats.submitted += 3
    stats.admitted += 2
    stats.completed += 2
    assert fleet.lookup(name)[1] is stats  # one stats object per tenant
    assert (stats.submitted, stats.completed) == (3, 2)
    assert name in fleet and len(fleet) == 5


def test_unknown_tenant_is_a_config_error():
    fleet = TenantRegistry.synthetic(3, RngRegistry(3).stream("fleet"))
    assert "nobody" not in fleet
    with pytest.raises(ConfigError, match="unknown tenant 'nobody'"):
        fleet.lookup("nobody")


def nearest_rank(values, q):
    """Exact nearest-rank q-quantile: the oracle for the histogram."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def test_histogram_quantiles_track_exact_percentiles():
    hist = LatencyHistogram()
    # Stay inside the default [0.1, 1e5) range so nothing overflows.
    samples = [0.5 * 1.05 ** i for i in range(200)]
    for s in samples:
        hist.observe(s)
    for q in (0.5, 0.9, 0.99):
        exact = nearest_rank(samples, q)
        approx = hist.quantile(q)
        # Bin upper edge: over-estimates by at most one bin's growth.
        assert exact <= approx <= exact * 1.12


def test_histogram_edges_and_overflow():
    # The layout's every edge, bit for bit as the float operations of a
    # LatencyHistogram(lo=0.1, hi=1e5, n_bins=256) computed them.
    scale = 255 / (math.log(1e5) - math.log(0.1))
    assert (LO, HI, N_BINS) == (0.1, 1e5, 256)
    hist = LatencyHistogram()
    assert [hist.edge(i) for i in range(N_BINS)] == [
        math.exp(math.log(0.1) + (i + 1) / scale) for i in range(256)]
    assert hist.edge(N_BINS - 2) == pytest.approx(HI)
    hist.observe(0.0)           # clamps into the first bin
    hist.observe(0.99 * HI)     # the last bin below the overflow bin
    hist.observe(1e6)           # overflow bin reports the exact max
    assert hist.counts[0] == hist.counts[N_BINS - 2] == 1
    assert hist.counts[N_BINS - 1] == 1
    assert hist.quantile(0.0) == hist.edge(0) > LO
    assert hist.quantile(1.0) == 1e6
    assert hist.max_seen == 1e6
    assert hist.count == 3
    with pytest.raises(ConfigError):
        hist.observe(-1.0)
    assert LatencyHistogram().quantile(0.5) == 0.0  # empty -> 0


def test_histogram_merge_equals_union():
    a, b, union = (LatencyHistogram() for _ in range(3))
    for i, v in enumerate(x * 7.3 + 0.2 for x in range(300)):
        (a if i % 2 else b).observe(v)
        union.observe(v)
    a.merge(b)
    assert a.count == union.count
    assert a.counts == union.counts
    assert (a.min_seen, a.max_seen) == (union.min_seen, union.max_seen)
    assert a.quantile(0.99) == union.quantile(0.99)


def test_histogram_order_independent():
    forward, backward = LatencyHistogram(), LatencyHistogram()
    values = [2.0 ** i for i in range(20)]
    for v in values:
        forward.observe(v)
    for v in reversed(values):
        backward.observe(v)
    assert forward.counts == backward.counts
    assert forward.quantile(0.5) == backward.quantile(0.5)
