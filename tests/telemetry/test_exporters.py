"""Exporter unit tests: Chrome trace, Prometheus text, CSV."""

import csv
import io
import json

from repro.sim.trace import Tracer
from repro.telemetry import (MetricsRegistry, chrome_trace, events as EV,
                             metrics_csv, prometheus_text, spans_csv,
                             write_chrome_trace)


def small_trace():
    tracer = Tracer()
    job = tracer.begin_span(0.0, EV.JOB_RUN, "wc")
    task = tracer.begin_span(1.0, EV.TASK_MAP, "m-0", parent=job,
                             tracker="vm-1")
    tracer.end_span(task, 3.0)
    fetch = tracer.begin_span(3.0, EV.SHUFFLE_FETCH, "m-0:r0", parent=job,
                              tracker="vm-2")
    tracer.end_span(fetch, 3.5)
    tracer.emit(4.0, EV.JOB_DONE, "wc", elapsed=4.0)
    tracer.end_span(job, 4.0)
    open_span = tracer.begin_span(2.0, EV.VM_BOOT, "vm-9")  # never ended
    assert open_span.open
    return tracer


def test_chrome_trace_rows_and_metadata():
    tracer = small_trace()
    trace = chrome_trace(tracer.spans, tracer.events)
    rows = trace["traceEvents"]
    complete = {r["name"]: r for r in rows if r["ph"] == "X"}
    # Only closed spans appear; names carry kind:name.
    assert f"{EV.JOB_RUN}:wc" in complete
    assert f"{EV.TASK_MAP}:m-0" in complete
    assert not any("vm.boot" in name for name in complete)
    task_row = complete[f"{EV.TASK_MAP}:m-0"]
    assert task_row["ts"] == 1.0e6 and task_row["dur"] == 2.0e6
    assert task_row["cat"] == "task"
    assert task_row["args"]["parent_id"] == 1
    # Span start/end events are folded into the X rows, not duplicated.
    instants = [r for r in rows if r["ph"] == "i"]
    assert [r["name"] for r in instants] == [EV.JOB_DONE]
    # The whole object is JSON-serializable.
    json.loads(json.dumps(trace))
    assert trace["displayTimeUnit"] == "ms"


def test_chrome_trace_skips_noisy_event_prefixes():
    tracer = Tracer()
    tracer.emit(0.0, EV.NET_TRANSFER_START, "flow", nbytes=1)
    tracer.emit(1.0, EV.NET_TRANSFER_END, "flow", nbytes=1)
    tracer.emit(2.0, EV.CLUSTER_PROVISIONED, "c")
    rows = chrome_trace([], tracer.events)["traceEvents"]
    names = [r["name"] for r in rows if r["ph"] == "i"]
    assert names == [EV.CLUSTER_PROVISIONED]


def test_write_chrome_trace_file(tmp_path):
    tracer = small_trace()
    path = tmp_path / "trace.json"
    returned = write_chrome_trace(str(path), tracer.spans, tracer.events)
    assert returned == str(path)
    with open(path, encoding="utf-8") as fh:
        assert json.load(fh)["traceEvents"]


def test_prometheus_text_counters_gauges_histograms():
    registry = MetricsRegistry()
    registry.counter("jobs.done", "completed", {"pool": "p0"}).inc(3)
    registry.gauge("slots.free").set(4)
    hist = registry.histogram("task.duration", "secs")
    hist.observe(0.5)
    hist.observe(5.0)
    hist.observe(50.0)
    hist.observe(1e9)                           # overflow bin: +Inf only
    text = prometheus_text(registry)
    assert '# TYPE jobs_done counter' in text
    assert 'jobs_done{pool="p0"} 3.0' in text
    assert "slots_free 4" in text
    # One cumulative line per non-empty bin, at that bin's upper edge.
    edges = [repr(hist.edge(i)) for i, n in enumerate(hist.counts) if n]
    for acc, le in enumerate(edges[:3], start=1):
        assert f'task_duration_bucket{{le="{le}"}} {acc}' in text
    assert text.count("task_duration_bucket") == 4
    assert 'task_duration_bucket{le="+Inf"} 4' in text
    assert "task_duration_count 4" in text
    assert "task_duration_sum 1000000055.5" in text


def test_metrics_csv_shape():
    registry = MetricsRegistry()
    registry.counter("c", labels={"vm": "a"}).inc(2)
    registry.histogram("h").observe(1.0)
    rows = list(csv.DictReader(io.StringIO(metrics_csv(registry))))
    by_name = {r["metric"]: r for r in rows}
    assert by_name["c"]["value"] == "2.0"
    assert by_name["c"]["labels"] == "vm=a"
    assert by_name["h"]["count"] == "1"


def test_spans_csv_skips_open_spans():
    tracer = small_trace()
    rows = list(csv.DictReader(io.StringIO(spans_csv(tracer.spans))))
    kinds = {r["kind"] for r in rows}
    assert EV.VM_BOOT not in kinds
    assert EV.JOB_RUN in kinds
    job_row = next(r for r in rows if r["kind"] == EV.JOB_RUN)
    assert job_row["category"] == "job"
    assert float(job_row["duration"]) == 4.0
