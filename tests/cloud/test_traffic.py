"""Determinism and shape of the open-loop arrival generators."""

import pytest

from repro.cloud import (BurstTraffic, DiurnalTraffic, PoissonTraffic,
                         TenantRegistry, TraceReplay, trace_digest)
from repro.cloud.traffic import JOB_CLASSES, mean_job_size_mb
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


@pytest.mark.parametrize("make, n_arrivals, digest", [
    (lambda t, r: PoissonTraffic("p", t, r, rate_per_s=2.0),
     4062, "2d82178ed5a44bf2"),
    (lambda t, r: DiurnalTraffic("d", t, r, base_rate_per_s=2.0,
                                 period_s=600.0),
     4123, "c1bb9ec34aa73272"),
    (lambda t, r: BurstTraffic("b", t, r, base_rate_per_s=2.0,
                               burst_every_s=500.0, burst_duration_s=100.0),
     5803, "d65c5347ef57dc68"),
], ids=["poisson", "diurnal", "burst"])
def test_arrival_streams_are_pinned(make, n_arrivals, digest):
    """Pinned before the draws moved off ``uniform`` / ``exponential``:
    every arrival time, tenant, class and size is the same double."""
    rngs = RngRegistry(7)
    tenants = TenantRegistry.synthetic(16, rngs.stream("fleet"))
    arrivals = make(tenants, rngs.stream("traffic")).materialize(2000.0)
    assert (len(arrivals), trace_digest(arrivals)) == (n_arrivals, digest)


def test_argument_free_draws_are_the_uniform_and_exponential_doubles():
    """The identity the generators rest on; a NumPy release that draws
    ``uniform`` / ``exponential`` differently must fail here, loudly."""
    old = RngRegistry(5).fresh("draws")
    new = RngRegistry(5).fresh("draws")
    for i in range(4000):
        a, b, scale = -3.0 + i, 0.125 * (i % 97) + i, 1.0 / (1 + i % 13)
        assert a + (b - a) * new.random() == float(old.uniform(a, b))
        assert scale * new.standard_exponential() == \
            float(old.exponential(scale))
        assert 37.5 * new.random() == float(old.uniform(0.0, 37.5))
        assert new.random() == float(old.uniform(0.0, 1.0))


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
                             base_rate_per_s=4.0, amplitude=0.8,
                             period_s=4000.0)
    arrivals = traffic.materialize(4000.0)
    # First half-period is the peak (sin > 0), second the trough.
    peak = sum(1 for a in arrivals if a.at < 2000.0)
    trough = len(arrivals) - peak
    assert peak > 1.5 * trough


def test_trace_replay_is_verbatim_and_digest_stable():
    tenants = fleet()
    original = PoissonTraffic("p", tenants, RngRegistry(5).stream("t"),
                              3.0).materialize(300.0)
    replay = TraceReplay("r", tenants, RngRegistry(99).stream("x"),
                         original)
    assert replay.materialize(300.0) == original
    assert trace_digest(replay.materialize(300.0)) == \
        trace_digest(original)
    # Horizon truncates the replay.
    assert all(a.at < 100.0 for a in replay.materialize(100.0))


def test_trace_replay_rejects_unknown_tenants():
    original = PoissonTraffic("p", fleet(n=10), RngRegistry(5).stream("t"),
                              3.0).materialize(100.0)
    with pytest.raises(ConfigError):
        TraceReplay("r", fleet(n=1), RngRegistry(0).stream("x"), original)


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
        DiurnalTraffic("d", tenants, rng, base_rate_per_s=1.0,
                       amplitude=1.5)
    with pytest.raises(ConfigError):
        BurstTraffic("b", tenants, rng, base_rate_per_s=1.0,
                     burst_duration_s=500.0, burst_every_s=100.0)
    with pytest.raises(ConfigError):
        PoissonTraffic("p", tenants, rng, 1.0).materialize(0.0)
