"""Span self-time arithmetic: nested, sibling and recursive spans."""

import time

import pytest

import tracing


def _busy(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def _self_by_name(tracer) -> dict:
    return {key.split("|", 1)[1]: value
            for key, value in tracer.aggregate().items()}


def test_nested_and_sibling_spans_split_self_time():
    tracer = tracing.Tracer()
    leaf = tracer.wrap(lambda: _busy(0.02), "layer.b_self_s", "leaf")

    def outer_body():
        _busy(0.03)
        leaf()
        leaf()          # siblings: disjoint children of one parent

    outer = tracer.wrap(outer_body, "layer.a_self_s", "outer")
    tracer.root(outer)
    agg = _self_by_name(tracer)
    assert agg["leaf"][0] == 2 and agg["outer"][0] == 1
    assert agg["leaf"][1] == pytest.approx(0.04, abs=0.01)
    assert agg["outer"][1] == pytest.approx(0.03, abs=0.01)
    # The root did nothing but call ``outer``.
    assert agg["workload"][1] < 0.005


def test_self_times_add_up_to_the_root_duration():
    tracer = tracing.Tracer()
    inner = tracer.wrap(lambda: _busy(0.01), "x_self_s", "inner")
    middle = tracer.wrap(lambda: (inner(), _busy(0.01), inner()),
                         "y_self_s", "middle")
    tracer.root(lambda: (middle(), _busy(0.01), middle()))
    root = tracer.spans[0]
    total_self = sum(v[1] for v in tracer.aggregate().values())
    assert total_self == pytest.approx(root[2] - root[1], rel=1e-9)


def test_recursive_spans_do_not_double_count():
    tracer = tracing.Tracer()

    def body(depth):
        _busy(0.01)
        if depth:
            recurse(depth - 1)

    recurse = tracer.wrap(body, "r_self_s", "recurse")
    tracer.root(lambda: recurse(3))
    calls, self_s = _self_by_name(tracer)["recurse"]
    assert calls == 4
    # Four levels of 10 ms each: 40 ms of self time, not 10+20+30+40.
    assert self_s == pytest.approx(0.04, abs=0.012)


def test_parent_is_the_span_that_caused_it_and_exceptions_close_spans():
    tracer = tracing.Tracer()

    def boom():
        raise KeyError("x")

    traced_boom = tracer.wrap(boom, "b_self_s", "boom")

    def caller():
        with pytest.raises(KeyError):
            traced_boom()

    tracer.root(tracer.wrap(caller, "c_self_s", "caller"))
    root, caller_span, boom_span = tracer.spans
    assert root[3] == -1 and caller_span[3] == 0 and boom_span[3] == 1
    assert all(span is not None and span[2] >= span[1]
               for span in tracer.spans)


def test_aggregate_since_a_mark_ignores_earlier_spans():
    tracer = tracing.Tracer()
    fn = tracer.wrap(lambda: None, "m_self_s", "fn")
    fn()
    mark = tracer.mark()
    fn()
    fn()
    assert tracer.aggregate(since=mark)["m_self_s|fn"][0] == 2


def test_layer_self_times_reports_every_metric_and_merges_entry_points():
    out = tracing.layer_self_times({
        "sim.fairshare.api_self_s|FairShareSystem.open": [3, 0.5],
        "sim.fairshare.api_self_s|FairShareSystem.close": [3, 0.25],
        "harness|workload": [1, 9.0],
    })
    assert out["sim.fairshare.api_self_s"] == 0.75
    assert set(out) == set(tracing.SELF_METRICS)
    assert out["ml.vectors_self_s"] == 0.0


def test_install_patches_and_uninstall_restores():
    from repro.mapreduce import api, runner
    from repro.sim.kernel import Simulator
    original_step = Simulator.step
    original_mapper = api.run_mapper
    tracer = tracing.install()
    try:
        assert tracing.installed() is tracer
        assert Simulator.step is not original_step
        # Importer-module rebinding: the runner imported it by name.
        assert runner.run_mapper is api.run_mapper is not original_mapper
        with pytest.raises(RuntimeError):
            tracing.install()
    finally:
        tracing.uninstall()
    assert tracing.installed() is None
    assert Simulator.step is original_step
    assert runner.run_mapper is api.run_mapper is original_mapper
