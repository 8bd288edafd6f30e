"""Unit tests for multi-window multi-burn-rate SLO evaluation."""

import pytest

from repro.errors import ConfigError
from repro.observatory.burnrate import (DEFAULT_BURN_WINDOWS,
                                        SERIES_BACKLOG, SERIES_LATENCY,
                                        SERVICE_BURN_POLICIES,
                                        BurnPolicy, BurnRateEngine,
                                        BurnWindow)
from repro.observatory.slo import SERVICE_SLOS, AlertBook
from repro.telemetry.timeseries import TimeSeriesStore

TICK = 5.0


def make_engine(policies=None):
    book = AlertBook()
    for spec in SERVICE_SLOS:
        book.register(spec)
    store = TimeSeriesStore(step=TICK)
    kwargs = {"policies": tuple(policies)} if policies else {}
    return BurnRateEngine(store, book, target="svc", **kwargs), book


def drive(engine, ticks, error, t0=0.0):
    """Record ``error`` latency-fraction for ``ticks`` ticks, evaluating."""
    now = t0
    for _ in range(ticks):
        engine.observe_service_tick(now, latency_error=error,
                                    rejection_frac=0.0,
                                    backlog_per_slot=0.0)
        engine.evaluate(now)
        now += TICK
    return now


# -- validation --------------------------------------------------------------

def test_window_and_policy_validation():
    with pytest.raises(ConfigError):
        BurnWindow(long_s=60.0, short_s=120.0, burn=1.0)
    with pytest.raises(ConfigError):
        BurnWindow(long_s=60.0, short_s=30.0, burn=0.0)
    with pytest.raises(ConfigError):
        BurnPolicy("s", "series", budget=0.0)
    with pytest.raises(ConfigError):
        # burn x budget > 1: an error fraction can never reach it.
        BurnPolicy("s", "series", budget=0.5,
                   windows=(BurnWindow(60.0, 30.0, burn=10.0),))
    with pytest.raises(ConfigError):
        BurnRateEngine(TimeSeriesStore(), AlertBook(), "t", policies=())


def test_catalogue_windows_are_alive():
    for policy in SERVICE_BURN_POLICIES:
        assert policy.windows
        for window in policy.windows:
            assert window.burn * policy.budget <= 1.0


# -- firing behaviour --------------------------------------------------------

def test_sustained_burn_fires_with_context():
    engine, book = make_engine()
    # p99 budget 0.02, fast window burn 10 → error fraction 0.2 sustained
    # over the 300 s long window must page.
    drive(engine, ticks=80, error=1.0)
    active = [a for a in book.alerts if a.slo == "service-p99"]
    assert active and active[0].target == "svc"
    assert "burn" in active[0].detail and "budget" in active[0].detail


def test_single_bad_tick_does_not_page():
    engine, book = make_engine()
    now = drive(engine, ticks=60, error=0.0)
    engine.observe_service_tick(now, latency_error=1.0,
                                rejection_frac=0.0, backlog_per_slot=0.0)
    engine.evaluate(now)
    now = drive(engine, ticks=60, error=0.0, t0=now + TICK)
    assert not book.alerts                      # long window never agreed


def test_alert_resolves_with_hysteresis_after_burn_stops():
    engine, book = make_engine()
    now = drive(engine, ticks=80, error=1.0)
    assert book.is_active("service-p99", "svc")
    # Clean ticks push every long-window burn under 0.5x its threshold.
    drive(engine, ticks=400, error=0.0, t0=now)
    assert not book.is_active("service-p99", "svc")
    resolved = [a for a in book.alerts if a.slo == "service-p99"]
    assert resolved[0].resolved_at is not None


def test_backlog_is_a_binary_indicator_with_objective():
    engine, _ = make_engine()
    engine.observe_service_tick(0.0, latency_error=0.0,
                                rejection_frac=0.0, backlog_per_slot=2.0)
    engine.observe_service_tick(TICK, latency_error=0.0,
                                rejection_frac=0.0, backlog_per_slot=0.5)
    series = engine.store.get(SERIES_BACKLOG)
    values = [b.last for b in series.latest(2)]
    assert values == [1.0, 0.0]                 # objective 1.0 splits them


def test_record_clamps_fractions():
    engine, _ = make_engine()
    engine.record(SERIES_LATENCY, 7.5, at=0.0)
    engine.record(SERIES_LATENCY, -2.0, at=TICK)
    series = engine.store.get(SERIES_LATENCY)
    assert series.latest(1, tier=0)[0].max <= 1.0
    assert series.latest(1, tier=0)[0].min >= 0.0


def test_states_report_both_windows():
    engine, _ = make_engine()
    engine.observe_service_tick(0.0, latency_error=1.0,
                                rejection_frac=1.0, backlog_per_slot=9.0)
    states = engine.evaluate(0.0)
    labels = {(s.slo, s.window) for s in states}
    assert ("service-p99", "fast") in labels
    assert ("service-p99", "slow") in labels
    assert len(states) == sum(len(p.windows)
                              for p in SERVICE_BURN_POLICIES)


def test_digest_is_the_store_digest():
    engine, _ = make_engine()
    drive(engine, ticks=10, error=0.5)
    assert engine.digest() == engine.store.digest()


def test_a_window_covers_now_and_not_its_far_edge():
    """A window of W covers ``(now - W, now]``: the sample recorded at
    ``now`` counts, the one W seconds back does not."""
    book = AlertBook()
    for spec in SERVICE_SLOS:
        book.register(spec)
    store = TimeSeriesStore(step=10.0)
    policy = BurnPolicy("service-p99", SERIES_LATENCY, budget=0.5,
                        windows=(BurnWindow(60.0, 60.0, burn=2.0),))
    engine = BurnRateEngine(store, book, target="svc", policies=(policy,))
    for at, error in ((10.0, 0.0), (20.0, 0.0), (30.0, 1.0)):
        engine.record(SERIES_LATENCY, error, at=at)
    assert store.get(SERIES_LATENCY).trailing_mean(30.0, 60.0) == 1 / 3
    [state] = engine.evaluate(30.0)
    assert state.long_burn == (1 / 3) / 0.5
    # At t=70 the window (10, 70] has dropped t=10 and holds t=70.
    engine.record(SERIES_LATENCY, 1.0, at=70.0)
    [state] = engine.evaluate(70.0)
    assert state.long_burn == (2 / 3) / 0.5


def test_a_total_outage_fires_on_the_tick_its_burn_crosses():
    """100 clean 5 s ticks, then a p99 outage from t=500.  At t=520 the
    slow pair's windows hold 5 of 105 and 5 of 60 bad ticks (burn 2.38
    and 4.17 against 2), counting the tick recorded at 520 itself; at
    515 the long window's 4 of 104 burn only 1.92."""
    engine, book = make_engine()
    now = drive(engine, ticks=100, error=0.0)
    assert now == 500.0
    while not book.is_active("service-p99", "svc"):
        now = drive(engine, ticks=1, error=1.0, t0=now)
    assert now - TICK == 520.0


def test_default_windows_detection_time_algebra():
    fast = DEFAULT_BURN_WINDOWS[0]
    # Total outage (error fraction 1.0) on a 2% budget burns at 50x; the
    # fast pair needs the long window mean to reach burn 10, i.e. 20% of
    # 300 s ≈ 60 s of outage.  Sanity-check the catalogue numbers.
    assert fast.long_s == 300.0 and fast.burn == 10.0
    detection_s = fast.burn * 0.02 * fast.long_s
    assert detection_s == pytest.approx(60.0)
