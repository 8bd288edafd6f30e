"""The always-on service experiment (``vhadoop service --quick``)."""

import os

from repro.experiments import service
from repro.observatory.burnrate import BurnRateEngine


def test_quick_service_run_pins_digests_and_writes_nothing(tmp_path,
                                                           monkeypatch):
    monkeypatch.chdir(tmp_path)
    result = service.run(quick=True, seed=7)
    notes = "\n".join(result.notes)
    assert "service digest e963ea7aef7e17d3" in notes
    assert "burn store digest 9b7ed36759a0c3f4" in notes
    assert "0 clean-run false positives" in notes
    # A cost counter, pinned beside the digests but not inside them: two
    # kernel events per job (arrival, finish) plus the control ticks.
    assert "kernel events 28158 (2.19 per submission)" in notes
    assert [row[0] for row in result.rows] == [
        "steady", "diurnal", "burst-off", "burst-on"]
    assert os.listdir(tmp_path) == []


def _window_mean(series, now, span):
    """Mean over ``(now - span, now]`` recomputed from ``range()``: the
    buckets starting after ``now - span`` up to ``now`` (ticks sit on
    bucket edges), on the finest tier retaining ``span``."""
    tier = next(i for i, t in enumerate(series.tiers)
                if span <= t.retention_s())
    width = series.tiers[tier].width
    total, count = 0.0, 0
    for _start, bucket in series.range(now - span + width, now + width,
                                       tier):
        total += bucket.total
        count += bucket.count
    return total / count if count else 0.0


def test_burn_rates_equal_a_range_recompute_on_every_tick(monkeypatch):
    """The engine sums each distinct window once per tick without
    building bucket lists; on every tick of the quick ``burst-on``
    universe its burns equal ``range()`` sums bit for bit."""
    evaluate = BurnRateEngine.evaluate
    burning = []

    def checked(engine, now):
        states = evaluate(engine, now)
        expected = []
        for policy in engine.policies:
            series = engine.store.get(policy.series)
            for window in policy.windows:
                expected.append((
                    _window_mean(series, now, window.long_s) / policy.budget,
                    _window_mean(series, now, window.short_s)
                    / policy.budget))
        assert [(s.long_burn, s.short_burn) for s in states] == expected
        burning.append(any(s.firing for s in states))
        return states

    monkeypatch.setattr(BurnRateEngine, "evaluate", checked)
    service.burn_timelines(7)
    assert len(burning) > 400 and any(burning)
