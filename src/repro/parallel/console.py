"""Campaign observability: the sidecar progress stream and control room.

The :mod:`repro.parallel.fabric` pool runs multi-process campaigns with
(until now) zero live visibility.  This module adds three pieces:

* a **sidecar JSONL stream** next to the campaign journal — workers
  append a record per finished item (their own wall time and peak RSS),
  the parent appends lifecycle records (spawn / kill / end) and
  periodic fleet RSS samples from ``/proc``.  Appends are single
  ``O_APPEND`` writes under ``PIPE_BUF``, so concurrent writers never
  interleave bytes; a killed worker can at worst tear the final line,
  which the tailer (like the journal loader) tolerates;
* a :class:`ConsoleTailer` that incrementally reads the stream and
  aggregates per-worker and fleet-level state — the live
  ``\\r``-status line (:meth:`ConsoleTailer.status_line`) and the data
  behind the report;
* a self-contained **control room** HTML report
  (:func:`control_room_html`, built on the observatory's shared
  :mod:`~repro.observatory.htmlkit`) charting fleet throughput,
  per-worker RSS, failure/retry counts, and — when the
  campaign carries service experiments — tenant SLO burn-rate
  timelines.

Determinism: the stream and the report are full of wall-clock data by
nature, so neither is hashed.  What CI pins is
:func:`control_room_digest` — a digest over the campaign's *sim-time*
content only (the sharded-run digest, the campaign digest, any series
digests), byte-identical across processes and ``--jobs`` levels.
"""

from __future__ import annotations

import html as _html
import json
import os
import time
from dataclasses import dataclass, field
from typing import Any, Mapping, Optional, Sequence

from repro.digest import Digest
from repro.observatory.htmlkit import column_chart, page

#: Sidecar format version (bumped on incompatible record changes).
CONSOLE_FORMAT = 1
#: Default sidecar suffix next to a campaign journal.
CONSOLE_SUFFIX = ".console.jsonl"


def console_append(path: str, record: Mapping[str, Any]) -> None:
    """Append one record as a single atomic ``O_APPEND`` write."""
    line = json.dumps(record, sort_keys=True) + "\n"
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        os.write(fd, line.encode("utf-8"))
    finally:
        os.close(fd)


class ConsoleWriter:
    """Parent-side writer: the header, lifecycle records, RSS samples."""

    def __init__(self, path: str, *, worker_ref: str, total: int,
                 jobs: int):
        self.path = path
        self.t0 = time.time()
        self._last_rss_emit = 0.0
        console_append(path, {
            "kind": "header", "format": CONSOLE_FORMAT,
            "worker": worker_ref, "total": total, "jobs": jobs,
            "t": round(self.t0, 3)})

    def event(self, kind: str, **fields: Any) -> None:
        record = {"kind": kind, "t": round(time.time(), 3)}
        record.update(fields)
        console_append(self.path, record)

    def rss_sample(self, rss_by_wid: Mapping[int, float],
                   pending: int, min_interval_s: float = 0.5) -> None:
        """Throttled fleet RSS snapshot (at most one per interval)."""
        now = time.time()
        if now - self._last_rss_emit < min_interval_s:
            return
        self._last_rss_emit = now
        self.event("rss", rss={str(w): round(v, 1)
                               for w, v in sorted(rss_by_wid.items())},
                   pending=pending)


@dataclass
class WorkerView:
    """Aggregated view of one worker from the stream."""

    wid: int
    items: int = 0
    failures: int = 0
    last_rss_mb: float = 0.0
    peak_rss_mb: float = 0.0
    state: str = "running"        # running | killed:timeout | killed:died
    rss_history: list[float] = field(default_factory=list)

    def saw_rss(self, rss_mb: float, history: bool = False) -> None:
        self.last_rss_mb = rss_mb
        if rss_mb > self.peak_rss_mb:
            self.peak_rss_mb = rss_mb
        if history:
            self.rss_history.append(rss_mb)


class ConsoleTailer:
    """Incremental reader + aggregator over a sidecar stream.

    Call :meth:`poll` as often as you like — it reads only the bytes
    appended since the last call and tolerates a torn final line (kept
    buffered until its newline arrives).  A rerun appends a second
    header; the tailer resets its aggregates at each header so the view
    always describes the *latest* campaign segment.
    """

    def __init__(self, path: str):
        self.path = path
        self._offset = 0
        self._tail = b""
        self.header: dict = {}
        self.workers: dict[int, WorkerView] = {}
        self.done = 0
        self.failed = 0
        self.kills = 0
        self.done_times: list[float] = []       # wall t of each done
        self.fleet_rss: list[tuple[float, float]] = []   # (t, total MB)
        self.finished: Optional[dict] = None    # the "end" record

    # -- reading -----------------------------------------------------------
    def poll(self) -> int:
        """Consume newly appended records; returns how many were read."""
        try:
            with open(self.path, "rb") as fh:
                fh.seek(self._offset)
                chunk = fh.read()
        except OSError:
            return 0
        if not chunk:
            return 0
        self._offset += len(chunk)
        data = self._tail + chunk
        lines = data.split(b"\n")
        self._tail = lines.pop()    # b"" on a clean newline boundary
        n = 0
        for line in lines:
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue            # torn by a kill — skip, keep going
            self._apply(record)
            n += 1
        return n

    def _worker(self, wid: int) -> WorkerView:
        view = self.workers.get(wid)
        if view is None:
            view = WorkerView(wid)
            self.workers[wid] = view
        return view

    def _apply(self, record: dict) -> None:
        kind = record.get("kind")
        if kind == "header":
            # A fresh campaign segment: reset the aggregates.
            self.header = record
            self.workers = {}
            self.done = self.failed = self.kills = 0
            self.done_times = []
            self.fleet_rss = []
            self.finished = None
        elif kind == "spawn":
            self._worker(int(record["wid"]))
        elif kind == "done":
            view = self._worker(int(record["wid"]))
            view.items += 1
            if not record.get("ok"):
                view.failures += 1
                self.failed += 1
            self.done += 1
            rss = record.get("rss_mb")
            if rss is not None:
                view.saw_rss(float(rss))
            self.done_times.append(float(record.get("t", 0.0)))
        elif kind == "rss":
            total = 0.0
            for wid_s, rss in (record.get("rss") or {}).items():
                view = self._worker(int(wid_s))
                view.saw_rss(float(rss), history=True)
                total += float(rss)
            self.fleet_rss.append((float(record.get("t", 0.0)), total))
        elif kind == "kill":
            self.kills += 1
            view = self._worker(int(record["wid"]))
            view.state = f"killed:{record.get('reason', '?')}"
        elif kind == "end":
            self.finished = record

    # -- derived -----------------------------------------------------------
    @property
    def total(self) -> int:
        return int(self.header.get("total", 0))

    def elapsed_s(self) -> float:
        t0 = float(self.header.get("t", 0.0))
        ts = ([t for t, _ in self.fleet_rss] + self.done_times
              + ([float(self.finished.get("t", 0.0))]
                 if self.finished else []))
        return max(ts) - t0 if ts and t0 else 0.0

    def throughput(self) -> float:
        """Fleet items/s over the observed window (0.0 until measurable)."""
        elapsed = self.elapsed_s()
        return self.done / elapsed if elapsed > 0 else 0.0

    def status_line(self) -> str:
        """One terminal line for ``\\r`` live rendering."""
        live = sum(1 for w in self.workers.values()
                   if w.state == "running")
        rss_now = sum(w.last_rss_mb for w in self.workers.values()
                      if w.state == "running")
        peak = max((w.peak_rss_mb for w in self.workers.values()),
                   default=0.0)
        bits = [f"campaign {self.done}/{self.total or '?'}",
                f"ok={self.done - self.failed} fail={self.failed}",
                f"{live} workers rss={rss_now:.0f}MB peak={peak:.0f}MB",
                f"{self.throughput():.1f} items/s"]
        if self.kills:
            bits.append(f"kills={self.kills}")
        return " | ".join(bits)


def tail_console(path: str) -> ConsoleTailer:
    """Read a whole sidecar stream once (the report-building path)."""
    tailer = ConsoleTailer(path)
    tailer.poll()
    return tailer


# -- the control room ---------------------------------------------------------

def control_room_digest(run_digest: str, campaign_digest: str = "",
                        series_digests: Sequence[str] = ()) -> str:
    """The digest CI pins: sim-time content only, never wall/RSS data."""
    h = Digest()
    h.update(f"run:{run_digest}\n")
    h.update(f"campaign:{campaign_digest}\n")
    for series_digest in series_digests:
        h.update(f"series:{series_digest}\n")
    return h.hex()


def _throughput_buckets(tailer: ConsoleTailer, n: int = 60) -> list[float]:
    """Done-items per wall bucket across the observed window."""
    if not tailer.done_times:
        return []
    t0 = float(tailer.header.get("t", min(tailer.done_times)))
    t1 = max(tailer.done_times)
    width = max((t1 - t0) / n, 1e-9)
    buckets = [0.0] * n
    for t in tailer.done_times:
        index = min(n - 1, int((t - t0) / width))
        buckets[index] += 1
    return buckets


def control_room_html(tailer: ConsoleTailer, *, title: str = "campaign",
                      digest: str = "", notes: Sequence[str] = (),
                      series: Optional[Mapping[str, Sequence[
                          tuple[float, float]]]] = None) -> str:
    """Render the self-contained control-room report.

    ``series`` carries optional *sim-time* timelines (e.g. tenant SLO
    burn rates from a :class:`~repro.telemetry.timeseries.TimeSeries`)
    as ``name -> [(t, value), ...]``.
    """
    parts = [f"<h1>Campaign control room — {_html.escape(title)}</h1>"]
    meta = [f"{tailer.done}/{tailer.total or '?'} items",
            f"{tailer.failed} failed",
            f"{len(tailer.workers)} workers",
            f"{tailer.elapsed_s():.1f}s wall",
            f"{tailer.throughput():.2f} items/s"]
    if digest:
        meta.append(f"digest <code>{digest}</code>")
    parts.append(f"<p class='meta'>{' &middot; '.join(meta)}</p>")
    if notes:
        parts.append("<ul class='meta'>")
        parts.extend(f"<li>{_html.escape(note)}</li>" for note in notes)
        parts.append("</ul>")

    buckets = _throughput_buckets(tailer)
    if buckets:
        parts.append("<h2>Fleet throughput</h2>")
        parts.append(column_chart("items finished / bucket", buckets,
                                  "#4c78a8"))

    if tailer.workers:
        parts.append("<h2>Per-worker RSS</h2>")
        for wid in sorted(tailer.workers):
            view = tailer.workers[wid]
            samples = view.rss_history or [view.peak_rss_mb]
            parts.append(column_chart(
                f"worker {wid} (peak {view.peak_rss_mb:.0f} MB)",
                samples, "#59a14f"))

        parts.append("<h2>Workers</h2>")
        parts.append("<table><tr><th>worker</th><th>state</th>"
                     "<th>items</th><th>failures</th>"
                     "<th>peak RSS MB</th></tr>")
        for wid in sorted(tailer.workers):
            view = tailer.workers[wid]
            parts.append(
                f"<tr><td>{wid}</td><td>{_html.escape(view.state)}</td>"
                f"<td>{view.items}</td><td>{view.failures}</td>"
                f"<td>{view.peak_rss_mb:.0f}</td></tr>")
        parts.append("</table>")
        parts.append(f"<p class='meta'>kills {tailer.kills}</p>")

    if series:
        parts.append("<h2>SLO burn-rate timelines (sim-time)</h2>")
        for name in sorted(series):
            points = list(series[name])
            parts.append(column_chart(
                name, [v for _, v in points], "#e8a838"))

    return page(f"control room — {title}", parts)


def write_control_room(path: str, tailer: ConsoleTailer, **kwargs) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(control_room_html(tailer, **kwargs))
    return path
