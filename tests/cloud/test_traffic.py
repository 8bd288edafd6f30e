"""Determinism, shape and statistics of the open-loop arrival generators."""

import math
from collections import Counter

import numpy as np
import pytest
from scipy import stats

from repro.cloud import (ADVERSARY_KINDS, AdversarySpec, BurstTraffic,
                         DiurnalTraffic, PoissonTraffic, TenantRegistry,
                         make_adversary_traffic, trace_digest)
from repro.cloud.traffic import BLOCK, JOB_CLASSES, mean_job_size_mb
from repro.errors import ConfigError
from repro.sim.rng import RngRegistry


def fleet(seed=3, n=10):
    return TenantRegistry.synthetic(n, RngRegistry(seed).stream("fleet"))


def test_same_seed_same_trace_digest():
    a = PoissonTraffic("p", fleet(), RngRegistry(7).stream("t"), 2.0)
    b = PoissonTraffic("p", fleet(), RngRegistry(7).stream("t"), 2.0)
    ta, tb = a.materialize(500.0), b.materialize(500.0)
    assert [x.line() for x in ta] == [x.line() for x in tb]
    assert trace_digest(ta) == trace_digest(tb)


#: The three generated shapes the pins and the prefix test run.
SHAPES = {
    "poisson": lambda t, r: PoissonTraffic("p", t, r, rate_per_s=2.0),
    "diurnal": lambda t, r: DiurnalTraffic("d", t, r, base_rate_per_s=2.0,
                                           period_s=600.0),
    "burst": lambda t, r: BurstTraffic("b", t, r, base_rate_per_s=2.0,
                                       burst_every_s=500.0,
                                       burst_duration_s=100.0),
}


@pytest.mark.parametrize("shape, n_arrivals, digest", [
    ("poisson", 4095, "5aaa70bb570cc7f5"),
    ("diurnal", 4248, "e660ac4ca9e2e20b"),
    ("burst", 5857, "0a98ba43d981b5ff"),
], ids=["poisson", "diurnal", "burst"])
def test_arrival_streams_are_pinned(shape, n_arrivals, digest):
    """Pinned at the block generator: every arrival time, tenant, class
    and size, byte for byte."""
    rngs = RngRegistry(7)
    tenants = TenantRegistry.synthetic(16, rngs.stream("fleet"))
    arrivals = SHAPES[shape](tenants, rngs.stream("traffic")).materialize(
        2000.0)
    assert (len(arrivals), trace_digest(arrivals)) == (n_arrivals, digest)


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_a_shorter_horizon_is_a_prefix(shape):
    """The horizon cuts a block after it is drawn: the 700 s trace is the
    start of the 9,000 s one, cut inside the first of several blocks."""
    def trace(horizon):
        rngs = RngRegistry(3)
        tenants = TenantRegistry.synthetic(16, rngs.stream("fleet"))
        return [a.line() for a in SHAPES[shape](
            tenants, rngs.stream("traffic")).materialize(horizon)]
    short, long = trace(700.0), trace(9000.0)
    assert len(long) > 4 * BLOCK > 4 * len(short) > 0
    assert long[:len(short)] == short


# -- the statistical oracle ---------------------------------------------------
# Fixed seeds make every check below deterministic; ALPHA says how unlucky a
# seed would have to be for a correct generator to fail it.
ALPHA = 0.01


def test_poisson_gaps_are_exponential():
    rate = 3.0
    arrivals = PoissonTraffic("p", fleet(), RngRegistry(21).stream("t"),
                              rate).materialize(3000.0)
    gaps = np.diff([0.0] + [a.at for a in arrivals])
    assert stats.kstest(gaps, "expon", args=(0.0, 1.0 / rate)).pvalue > ALPHA


def test_burst_density_is_burst_factor_times_the_base():
    traffic = BurstTraffic("b", fleet(), RngRegistry(22).stream("t"),
                           base_rate_per_s=2.0, burst_factor=5.0,
                           burst_every_s=1000.0, burst_duration_s=200.0)
    horizon = 20000.0
    inside = traffic.in_burst(np.array(
        [a.at for a in traffic.materialize(horizon)]))
    burst_s = 200.0 * len(np.arange(1000.0, horizon, 1000.0))
    ratio = (inside.sum() / burst_s) / ((~inside).sum()
                                        / (horizon - burst_s))
    # ~38k and ~32k arrivals: the ratio's relative error is ~0.8%.
    assert ratio == pytest.approx(5.0, rel=0.04)


def test_tenant_shares_follow_the_weights():
    tenants = fleet(n=12)
    arrivals = PoissonTraffic("p", tenants, RngRegistry(23).stream("t"),
                              10.0).materialize(3000.0)
    seen = Counter(a.tenant for a in arrivals)
    weights = np.array([spec.weight for spec in tenants])
    expected = len(arrivals) * weights / weights.sum()
    observed = [seen[name] for name in tenants.names]
    assert stats.chisquare(observed, expected).pvalue > ALPHA


def test_class_shares_and_log_uniform_sizes_within_each_class():
    arrivals = PoissonTraffic("p", fleet(), RngRegistry(24).stream("t"),
                              10.0).materialize(3000.0)
    sizes = {name: [] for name, *_ in JOB_CLASSES}
    for a in arrivals:
        sizes[a.job_class].append(a.size_mb)
    observed = [len(sizes[name]) for name, *_ in JOB_CLASSES]
    expected = [len(arrivals) * prob for *_, prob in JOB_CLASSES]
    assert stats.chisquare(observed, expected).pvalue > ALPHA
    for name, lo, hi, _ in JOB_CLASSES:
        position = np.log(np.array(sizes[name]) / lo) / math.log(hi / lo)
        assert stats.kstest(position, "uniform").pvalue > ALPHA


def test_adversaries_keep_their_pinned_tenant_class_and_size():
    tenants = fleet(n=6)
    target = tenants.names[3]
    traces = {kind: make_adversary_traffic(
        AdversarySpec(kind, intensity=3, tenant=target), tenants,
        RngRegistry(25).stream(kind)).materialize(3000.0)
        for kind in ADVERSARY_KINDS}
    for arrivals in traces.values():
        assert arrivals and {a.tenant for a in arrivals} == {target}
    hot = traces["hotkey"]
    assert all(a.at % 120.0 < 10.0 for a in hot)        # bursts only
    assert {a.job_class for a in hot} == {n for n, *_ in JOB_CLASSES}
    assert {(a.job_class, a.size_mb) for a in traces["skew"]} == \
        {("large", 8192.0)}
    assert {(a.job_class, a.size_mb) for a in traces["spam"]} == \
        {("small", 16.0)}
    with pytest.raises(ConfigError):
        make_adversary_traffic(AdversarySpec("spam", tenant="nobody"),
                               tenants, RngRegistry(0).stream("x"))


def test_different_seed_different_trace():
    a = PoissonTraffic("p", fleet(), RngRegistry(7).stream("t"), 2.0)
    b = PoissonTraffic("p", fleet(), RngRegistry(8).stream("t"), 2.0)
    assert trace_digest(a.materialize(500.0)) != \
        trace_digest(b.materialize(500.0))


def test_arrivals_sorted_decorated_and_bounded():
    arrivals = PoissonTraffic("p", fleet(), RngRegistry(0).stream("t"),
                              5.0).materialize(200.0)
    assert len(arrivals) > 500
    assert all(0 <= a.at < 200.0 for a in arrivals)
    assert arrivals == sorted(arrivals, key=lambda a: a.at)
    classes = {a.job_class for a in arrivals}
    assert classes == {name for name, *_ in JOB_CLASSES}
    for a in arrivals:
        lo = min(lo for _, lo, _, _ in JOB_CLASSES)
        hi = max(hi for _, _, hi, _ in JOB_CLASSES)
        assert lo <= a.size_mb <= hi
    # Request ids are unique and stable in format.
    ids = [a.request_id for a in arrivals]
    assert len(set(ids)) == len(ids)
    assert ids[0] == "p-00000000"


def test_poisson_rate_is_roughly_honoured():
    arrivals = PoissonTraffic("p", fleet(), RngRegistry(1).stream("t"),
                              4.0).materialize(2000.0)
    assert 4.0 * 2000 * 0.9 < len(arrivals) < 4.0 * 2000 * 1.1


def test_burst_windows_multiply_the_rate():
    traffic = BurstTraffic("b", fleet(), RngRegistry(2).stream("t"),
                           base_rate_per_s=2.0, burst_factor=5.0,
                           burst_every_s=1000.0, burst_duration_s=200.0)
    assert not traffic.in_burst(500.0)
    assert traffic.in_burst(1100.0)
    assert traffic.rate_at(500.0) == 2.0
    assert traffic.rate_at(1100.0) == 10.0
    arrivals = traffic.materialize(2000.0)
    in_burst = sum(1 for a in arrivals if traffic.in_burst(a.at))
    outside = len(arrivals) - in_burst
    # 200s at 10/s vs 1800s at 2/s: the burst density is ~5x the base.
    assert in_burst / 200.0 > 3.0 * (outside / 1800.0)


def test_diurnal_peaks_and_troughs():
    traffic = DiurnalTraffic("d", fleet(), RngRegistry(4).stream("t"),
                             base_rate_per_s=4.0, period_s=4000.0)
    arrivals = traffic.materialize(4000.0)
    # First half-period is the peak (sin > 0), second the trough.
    peak = sum(1 for a in arrivals if a.at < 2000.0)
    trough = len(arrivals) - peak
    assert peak > 1.5 * trough


def test_mean_job_size_matches_the_mix():
    # Log-uniform mean per class: (hi-lo)/ln(hi/lo), mixed by probability.
    mean = mean_job_size_mb()
    assert 400.0 < mean < 600.0
    empirical = PoissonTraffic("p", fleet(), RngRegistry(6).stream("t"),
                               10.0).materialize(5000.0)
    observed = sum(a.size_mb for a in empirical) / len(empirical)
    assert abs(observed - mean) / mean < 0.25


def test_traffic_validation():
    tenants = fleet()
    rng = RngRegistry(0).stream("t")
    with pytest.raises(ConfigError):
        PoissonTraffic("p", tenants, rng, rate_per_s=0.0)
    with pytest.raises(ConfigError):
        BurstTraffic("b", tenants, rng, base_rate_per_s=1.0,
                     burst_duration_s=500.0, burst_every_s=100.0)
    with pytest.raises(ConfigError):
        PoissonTraffic("p", tenants, rng, 1.0).materialize(0.0)
