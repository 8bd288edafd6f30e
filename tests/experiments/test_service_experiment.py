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
    # A cost counter, pinned beside the digests but not inside them: one
    # kernel event per arrival, plus control ticks, slot hops and the
    # completion backstop.
    assert "kernel events 16022 (1.25 per submission)" in notes
    assert [row[0] for row in result.rows] == [
        "steady", "diurnal", "burst-off", "burst-on"]
    assert os.listdir(tmp_path) == []


def test_quick_service_run_costs_at_most_1_3_kernel_events_per_submission():
    """Completions wait in the slot model's own heap, not in the kernel:
    one event per arrival plus ticks, slot hops and backstops.  A bound
    on a seed other than the pinned one (a kernel event per completion
    cost 2.19)."""
    counts = {}
    for note in service.run(quick=True, seed=11).notes:
        words = note.split()
        if words[:2] in (["kernel", "events"], ["total", "submissions"]):
            counts[words[0]] = int(words[2])
    assert counts["kernel"] <= 1.3 * counts["total"]


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
