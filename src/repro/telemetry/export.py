"""Telemetry exporters: Chrome ``trace_event`` JSON, Prometheus text, CSV.

* :func:`chrome_trace` renders spans (complete ``"X"`` events) and point
  trace events (instant ``"i"`` events) into the Chrome trace-event format;
  the result opens directly in ``chrome://tracing`` or Perfetto.  Rows are
  grouped by span category (pid) and by source VM/tracker (tid).
* :func:`prometheus_text` renders a :class:`MetricsRegistry` in the
  Prometheus text exposition format.
* :func:`metrics_csv` / :func:`spans_csv` render flat CSV for spreadsheet
  analysis (the modern stand-in for the paper's nmon-analyser workbook).
"""

from __future__ import annotations

import csv
import io
import json
import zlib
from typing import Iterable, Optional, Sequence

from repro.sim.trace import Span, TraceEvent
from repro.telemetry import events as EV
from repro.telemetry.metrics import LatencyHistogram, MetricsRegistry

#: Stable pid per category so Perfetto's track order is deterministic.
_CATEGORY_PIDS = {
    "job": 1, "phase": 2, "task": 3, "shuffle": 4, "hdfs": 5,
    "vm": 6, "migration": 7, "scheduler": 8, "net": 9, "cluster": 10,
    "cloud": 11, "other": 12,
}


def _json_safe(value):
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def chrome_trace(spans: Sequence[Span],
                 events: Sequence[TraceEvent] = ()) -> dict:
    """Render spans + events as a Chrome trace-event JSON object.

    Timestamps are microseconds (simulated seconds × 1e6).  Span start/end
    events are omitted from the instant-event stream — the spans themselves
    carry that information as complete events.  The high-volume per-flow
    ``net.transfer`` events are skipped too.
    """
    skip = ("net.transfer",) + tuple(
        f"{kind}.{edge}" for kind in EV.SPAN_KINDS
        for edge in ("start", "end"))
    trace_events: list[dict] = []
    seen_tracks: set[tuple[int, str]] = set()
    seen_pids: set[int] = set()

    def track(category: str, tid_name: str) -> tuple[int, int]:
        pid = _CATEGORY_PIDS.get(category, _CATEGORY_PIDS["other"])
        key = (pid, tid_name)
        if key not in seen_tracks:
            seen_tracks.add(key)
            # One process_name row per pid (probing the seen_tracks *set*
            # for other members of this pid depended on hash order).
            if pid not in seen_pids:
                seen_pids.add(pid)
                trace_events.append({
                    "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
                    "args": {"name": category}})
        # tids must be integers; hash the row label into a small id that is
        # stable across processes (``hash(str)`` is salted per run, which
        # made every export assign fresh tids — the golden-file tests pin
        # the crc32 assignment).
        tid = zlib.crc32(tid_name.encode("utf-8")) % 1_000_000
        trace_events.append({
            "name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
            "args": {"name": tid_name}})
        return pid, tid

    emitted_threads: set[tuple[int, int]] = set()
    for span in spans:
        if span.open:
            continue
        category = EV.category_of(span.kind)
        row = str(span.attrs.get("tracker") or span.attrs.get("vm")
                  or span.attrs.get("host") or span.name)
        pid, tid = track(category, row)
        emitted_threads.add((pid, tid))
        args = {k: _json_safe(v) for k, v in span.attrs.items()}
        args["span_id"] = span.span_id
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        trace_events.append({
            "name": f"{span.kind}:{span.name}",
            "cat": category,
            "ph": "X",
            "ts": span.start * 1e6,
            "dur": max(span.duration, 0.0) * 1e6,
            "pid": pid,
            "tid": tid,
            "args": args,
        })
    for event in events:
        if any(event.kind.startswith(prefix) for prefix in skip):
            continue
        category = EV.category_of(event.kind)
        pid, tid = track(category, str(event.source))
        trace_events.append({
            "name": event.kind,
            "cat": category,
            "ph": "i",
            "s": "t",
            "ts": event.time * 1e6,
            "pid": pid,
            "tid": tid,
            "args": {k: _json_safe(v) for k, v in event.attrs.items()},
        })
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def write_chrome_trace(path: str, spans: Sequence[Span],
                       events: Sequence[TraceEvent] = ()) -> str:
    """Write :func:`chrome_trace` output as JSON; returns the path."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(chrome_trace(spans, events), fh)
    return path


# -- Prometheus text ---------------------------------------------------------

def _prom_name(name: str, suffix: str = "") -> str:
    return name.replace(".", "_").replace("-", "_") + suffix


def _prom_escape(value) -> str:
    """Escape a label value per the text exposition format: backslash,
    double quote and newline must be escaped inside the quoted value."""
    return (str(value).replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _prom_labels(labelset, extra: Optional[dict] = None) -> str:
    pairs = list(labelset) + sorted((extra or {}).items())
    if not pairs:
        return ""
    body = ",".join(f'{k}="{_prom_escape(v)}"' for k, v in pairs)
    return "{" + body + "}"


def prometheus_text(registry: MetricsRegistry) -> str:
    """Prometheus text exposition format (families sorted by name)."""
    lines: list[str] = []
    for name in sorted(registry.families):
        family = registry.families[name]
        metric = _prom_name(name)
        if family.help:
            help_text = (family.help.replace("\\", "\\\\")
                         .replace("\n", "\\n"))
            lines.append(f"# HELP {metric} {help_text}")
        lines.append(f"# TYPE {metric} {family.kind}")
        for labelset, child in family.items():
            if isinstance(child, LatencyHistogram):
                # One cumulative line per non-empty bin below the overflow
                # bin, which only ``+Inf`` covers.
                acc = 0
                for index, n in enumerate(child.counts[:-1]):
                    if n:
                        acc += n
                        le = repr(child.edge(index))
                        lines.append(
                            f"{metric}_bucket"
                            f"{_prom_labels(labelset, {'le': le})} {acc}")
                lines.append(
                    f"{metric}_bucket{_prom_labels(labelset, {'le': '+Inf'})}"
                    f" {child.count}")
                lines.append(
                    f"{metric}_sum{_prom_labels(labelset)} {child.total}")
                lines.append(
                    f"{metric}_count{_prom_labels(labelset)} {child.count}")
            else:
                lines.append(
                    f"{metric}{_prom_labels(labelset)} {child.value}")
    return "\n".join(lines) + "\n"


# -- CSV ---------------------------------------------------------------------

def metrics_csv(registry: MetricsRegistry) -> str:
    """Flat CSV: metric,type,labels,value/count/sum/min/max/mean."""
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["metric", "type", "labels", "value", "count", "sum",
                     "min", "max", "mean"])
    for name in sorted(registry.families):
        family = registry.families[name]
        for labelset, child in family.items():
            labels = ";".join(f"{k}={v}" for k, v in labelset)
            if isinstance(child, LatencyHistogram):
                low = child.min_seen if child.count else ""
                high = child.max_seen if child.count else ""
                writer.writerow([name, family.kind, labels, "",
                                 child.count, child.total, low, high,
                                 child.mean])
            else:
                writer.writerow([name, family.kind, labels, child.value,
                                 "", "", "", "", ""])
    return out.getvalue()


def spans_csv(spans: Iterable[Span]) -> str:
    """Flat CSV of finished spans (one row per span)."""
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["span_id", "parent_id", "kind", "category", "name",
                     "start", "end", "duration"])
    for span in spans:
        if span.open:
            continue
        writer.writerow([span.span_id,
                         span.parent_id if span.parent_id else "",
                         span.kind, EV.category_of(span.kind), span.name,
                         f"{span.start:.6f}", f"{span.end:.6f}",
                         f"{span.duration:.6f}"])
    return out.getvalue()
