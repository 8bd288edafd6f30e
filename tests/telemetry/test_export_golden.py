"""Golden-file exporter tests.

The fixtures are fully synthetic (hand-built spans, events, metrics and a
time-series store), so every byte of the rendered Chrome trace,
Prometheus text and CSVs is deterministic and pinned against the files in
``goldens/``, and the store's content is pinned by its digest.  This is what
keeps the exports stable across refactors — notably the Chrome-trace tid
assignment, which once used ``hash(str)`` and silently changed ids every
process (PYTHONHASHSEED salting).

To regenerate after an intentional format change::

    REGEN_GOLDENS=1 PYTHONPATH=src python -m pytest \
        tests/telemetry/test_export_golden.py
"""

import json
import os
import subprocess
import sys
import zlib
from pathlib import Path

import pytest

from repro.sim.trace import Tracer
from repro.telemetry import (MetricsRegistry, chrome_trace, events as EV,
                             metrics_csv, prometheus_text, spans_csv)

GOLDENS = Path(__file__).parent / "goldens"
REPO_ROOT = Path(__file__).resolve().parents[2]


def golden(name: str, rendered: str) -> None:
    # Byte-level comparison: the CSVs carry \r\n row endings which text
    # mode would silently normalize away.
    path = GOLDENS / name
    if os.environ.get("REGEN_GOLDENS"):
        path.write_bytes(rendered.encode("utf-8"))
    expected = path.read_bytes().decode("utf-8")
    assert rendered == expected, (
        f"{name} drifted from its golden file — if the format change is "
        f"intentional, regenerate with REGEN_GOLDENS=1")


def fixture_tracer() -> Tracer:
    tracer = Tracer()
    job = tracer.begin_span(0.0, EV.JOB_RUN, "wc", n_reduces=2)
    maps = tracer.begin_span(0.5, EV.PHASE_MAP, "wc", parent=job)
    m0 = tracer.begin_span(1.0, EV.TASK_MAP, "m-00000", parent=maps,
                           tracker="vm01")
    tracer.end_span(m0, 4.0, input_bytes=1024)
    tracer.end_span(maps, 4.0)
    fetch = tracer.begin_span(4.0, EV.SHUFFLE_FETCH, "m-00000:r0",
                              parent=job, tracker="vm02", nbytes=512)
    tracer.end_span(fetch, 4.5)
    tracer.emit(5.0, EV.JOB_DONE, "wc", elapsed=5.0)
    tracer.end_span(job, 5.0)
    tracer.begin_span(2.0, EV.VM_BOOT, "vm-open")    # stays open
    return tracer


def fixture_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter("mapreduce.tasks.speculated", "backup attempts",
                     {"phase": "map", "job": "wc"}).inc(3)
    registry.gauge("vm.cpu.utilization", "VCPU load fraction",
                   {"vm": "vm01"}).set(0.75)
    hist = registry.histogram("shuffle.partition.bytes",
                              "bytes per partition", {"job": "wc"})
    for value in (50, 150, 5000):
        hist.observe(value)
    # The escaping gauntlet: quotes, backslashes and newlines in label
    # values, a newline in help text.
    registry.counter("weird.labels", 'help with "quotes"\nand a newline',
                     {"path": 'C:\\tmp\\"in"\nout'}).inc()
    return registry


def fixture_store():
    """A small deterministic time-series store: wrapped ring, labels,
    a histogram series."""
    from repro.cloud.tenants import LatencyHistogram
    from repro.telemetry import TimeSeriesStore

    store = TimeSeriesStore(step=5.0, capacity=4)
    for i in range(7):                           # 7 samples: the ring wraps
        store.record("service.backlog", float(i % 3), at=i * 5.0)
        store.record("pool.utilization", 0.5 + 0.05 * i,
                     labels={"pool": "workers"}, at=i * 5.0)
    hist = LatencyHistogram()
    for value in (0.5, 1.0, 2.0, 40.0):
        hist.observe(value)
    store.record_histogram("service.latency", hist, at=10.0)
    return store


def test_chrome_trace_matches_golden():
    trace = chrome_trace(fixture_tracer().spans, fixture_tracer().events)
    golden("chrome_trace.json",
           json.dumps(trace, indent=1, sort_keys=True) + "\n")


def test_chrome_trace_tids_are_crc32_stable():
    trace = chrome_trace(fixture_tracer().spans)
    rows = {r["name"]: r for r in trace["traceEvents"] if r["ph"] == "X"}
    task = rows[f"{EV.TASK_MAP}:m-00000"]
    assert task["tid"] == zlib.crc32(b"vm01") % 1_000_000
    assert task["pid"] == 3                      # the "task" category pid
    fetch = rows[f"{EV.SHUFFLE_FETCH}:m-00000:r0"]
    assert fetch["tid"] == zlib.crc32(b"vm02") % 1_000_000
    assert fetch["pid"] == 4                     # the "shuffle" category pid


def test_prometheus_text_matches_golden():
    golden("metrics.prom", prometheus_text(fixture_registry()))


def test_prometheus_escaping_round_trips():
    text = prometheus_text(fixture_registry())
    line = next(ln for ln in text.splitlines()
                if ln.startswith("weird_labels{"))
    assert '\n' not in line                     # newline escaped, not raw
    assert '\\"in\\"' in line and "\\\\tmp" in line and "\\n" in line
    help_line = next(ln for ln in text.splitlines()
                     if ln.startswith("# HELP weird_labels"))
    assert "\\nand" in help_line


def test_histogram_exposition_is_cumulative():
    text = prometheus_text(fixture_registry())
    buckets = [ln for ln in text.splitlines()
               if ln.startswith("shuffle_partition_bytes_bucket")]
    counts = [int(ln.rsplit(" ", 1)[1]) for ln in buckets]
    assert counts == [1, 2, 3, 3]               # cumulative, +Inf == count
    assert 'le="+Inf"' in buckets[-1]


def test_metrics_csv_matches_golden():
    golden("metrics.csv", metrics_csv(fixture_registry()))


def test_spans_csv_matches_golden():
    golden("spans.csv", spans_csv(fixture_tracer().spans))


def test_spans_csv_excludes_open_spans():
    text = spans_csv(fixture_tracer().spans)
    assert "vm-open" not in text


#: ``fixture_store().digest()``: every live bucket of every tier of both
#: scalar series (the wrapped ring included) and of the histogram series.
STORE_DIGEST = "073530a21a34fd76"


def test_store_digest_is_pinned():
    assert fixture_store().digest() == STORE_DIGEST


_DIGEST_SNIPPET = """
import json, sys
sys.path.insert(0, {src!r}); sys.path.insert(0, {root!r})
from tests.telemetry.test_export_golden import (fixture_registry,
                                                fixture_store, fixture_tracer)
from repro.digest import digest
from repro.telemetry import (chrome_trace, metrics_csv, prometheus_text,
                             spans_csv)
print(fixture_store().digest())
tracer, registry = fixture_tracer(), fixture_registry()
for text in (json.dumps(chrome_trace(tracer.spans, tracer.events),
                        sort_keys=True),
             prometheus_text(registry), metrics_csv(registry),
             spans_csv(tracer.spans)):
    print(digest(text))
"""


def test_digests_identical_across_fresh_salted_processes():
    """Two fresh interpreters with different PYTHONHASHSEEDs must agree
    on the store digest and every exporter's bytes — no dict/set
    iteration order anywhere in the pipeline."""
    snippet = _DIGEST_SNIPPET.format(src=str(REPO_ROOT / "src"),
                                     root=str(REPO_ROOT))
    outputs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        proc = subprocess.run([sys.executable, "-c", snippet],
                              capture_output=True, text=True, env=env,
                              check=True)
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0].splitlines()[0] == STORE_DIGEST
    assert len(outputs[0].splitlines()) == 5    # digest + 4 exporter hashes


@pytest.mark.parametrize("name", ["chrome_trace.json", "metrics.prom",
                                  "metrics.csv", "spans.csv"])
def test_goldens_are_checked_in(name):
    assert (GOLDENS / name).is_file()
