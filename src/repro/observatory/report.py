"""Rendering the observatory's findings: terminal text and HTML.

The HTML report is fully self-contained — inline CSS, no scripts, no
external assets — so it can be attached to a CI run or opened from a
results directory offline.  It shows three sections:

* **phase timeline** — the job's phase and critical-path spans as bars;
* **alert timeline** — every fired alert as a bar from fire to resolve
  (or to the end of the run while active), coloured by severity;
* **attribution table** — per-segment blame with per-class seconds, plus
  the per-phase and whole-job rollups.
"""

from __future__ import annotations

import html as _html
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence

from repro.monitor.nmon import CPU, DISK, NET_RX, NET_TX, TASKS, vm_buckets
from repro.observatory.attribution import (CLASSES, JobBottleneckReport)
from repro.observatory.htmlkit import (CLASS_COLOURS as _CLASS_COLOURS,
                                       SEVERITY_COLOURS as _SEVERITY_COLOURS,
                                       page, timeline_bar)
from repro.observatory.slo import Alert

if TYPE_CHECKING:  # pragma: no cover
    from repro.observatory.core import Observatory
    from repro.telemetry.timeline import CriticalPath, JobTimeline
    from repro.telemetry.timeseries import TimeSeriesStore


@dataclass(frozen=True)
class WindowSummary:
    """Aggregates of one VM's nmon samples over the trailing window."""

    vm: str
    n_samples: int
    span_s: float            # window span actually covered by samples
    cpu_mean: float
    disk_bytes: float
    net_bytes: float
    activity_mean: float

    @property
    def disk_rate(self) -> float:
        """Bytes/s of virtual-disk I/O over the window."""
        return self.disk_bytes / self.span_s if self.span_s > 0 else 0.0

    @property
    def net_rate(self) -> float:
        return self.net_bytes / self.span_s if self.span_s > 0 else 0.0


def window_summaries(store: "TimeSeriesStore", vms: Sequence[str],
                     now: float, window_s: float) -> list[WindowSummary]:
    """Per-VM aggregates of the nmon samples in ``[now - window_s, now]``:
    the raw-tier buckets whose last sample is at or after the cutoff."""
    cutoff = now - window_s

    def tail(vm: str, name: str) -> list:
        return [b for b in vm_buckets(store, vm, name) if b.last_at >= cutoff]

    def total(vm: str, name: str) -> float:
        return sum(b.total for b in tail(vm, name))

    out = []
    for vm in sorted(vms):
        cpu = tail(vm, CPU)
        n = sum(b.count for b in cpu)
        if not n:
            out.append(WindowSummary(vm, 0, 0.0, 0.0, 0.0, 0.0, 0.0))
            continue
        # A sample's deltas cover the interval before it, so even a single
        # sample spans one sampling interval (the store's step).
        span = min(window_s, max(now - cpu[0].last_at, store.step))
        out.append(WindowSummary(
            vm=vm, n_samples=n, span_s=span,
            cpu_mean=total(vm, CPU) / n,
            disk_bytes=total(vm, DISK),
            net_bytes=total(vm, NET_TX) + total(vm, NET_RX),
            activity_mean=total(vm, TASKS) / n))
    return out


@dataclass
class ObservatoryReport:
    """Everything one report render needs, already extracted."""

    generated_at: float
    digest: str
    alerts: list[Alert]
    window: list[WindowSummary] = field(default_factory=list)
    job: Optional[str] = None
    timeline: Optional["JobTimeline"] = None
    path: Optional["CriticalPath"] = None
    attribution: Optional[JobBottleneckReport] = None

    # -- terminal ----------------------------------------------------------
    def describe(self) -> str:
        lines = [f"observatory report @ {self.generated_at:.2f} s — "
                 f"{len(self.alerts)} alerts, digest {self.digest}"]
        active = [a for a in self.alerts if a.active]
        if active:
            lines.append(f"  active: {len(active)}")
        for alert in self.alerts:
            lines.append("  " + alert.describe())
        if self.attribution is not None:
            lines.append("")
            lines.append(self.attribution.describe())
        return "\n".join(lines)

    # -- HTML --------------------------------------------------------------
    def html(self) -> str:
        end = max([self.generated_at]
                  + [a.resolved_at or self.generated_at
                     for a in self.alerts])
        start = 0.0
        if self.timeline is not None:
            start = min(start, self.timeline.job_span.start)
            end = max(end, self.timeline.job_span.end)
        total = max(end - start, 1e-9)

        def bar(t0: float, t1: float, colour: str, label: str) -> str:
            return timeline_bar(t0, t1, start, total, colour, label)

        parts = [
            f"<h1>Cluster observatory</h1><p class='meta'>generated at "
            f"t={self.generated_at:.2f}&thinsp;s &middot; "
            f"{len(self.alerts)} alerts &middot; digest "
            f"<code>{self.digest}</code></p>",
        ]

        if self.timeline is not None:
            parts.append(f"<h2>Phase timeline — {_html.escape(self.job)}"
                         f"</h2>")
            shown = [self.timeline.job_span]
            shown += [s for s in self.timeline.spans
                      if s.kind.startswith("job.phase.")]
            for span in shown:
                parts.append(bar(span.start, span.end, "#9ecae1",
                                 f"{span.kind}:{span.name}"))
            if self.path is not None:
                for seg in self.path.segments:
                    colour = (_CLASS_COLOURS["wait"] if seg.span is None
                              else "#6baed6")
                    parts.append(bar(seg.start, seg.end, colour,
                                     f"  path {seg.label}"))

        parts.append("<h2>Alert timeline</h2>")
        if not self.alerts:
            parts.append("<p class='meta'>no alerts fired</p>")
        for alert in self.alerts:
            colour = _SEVERITY_COLOURS.get(alert.severity, "#888")
            until = (alert.resolved_at if alert.resolved_at is not None
                     else end)
            state = "" if alert.resolved_at is not None else " (active)"
            parts.append(bar(alert.fired_at, until, colour,
                             f"{alert.slo} {alert.target}{state}"))

        if self.attribution is not None:
            rep = self.attribution
            parts.append("<h2>Bottleneck attribution</h2>")
            parts.append(f"<p class='meta'>makespan {rep.makespan:.2f}"
                         f"&thinsp;s &middot; {rep.coverage:.0%} "
                         f"attributed &middot; dominant class "
                         f"<b>{rep.dominant}</b></p>")
            head = "".join(f"<th>{c}</th>" for c in (*CLASSES, "wait"))
            parts.append(f"<table><tr><th>scope</th><th>blame</th>{head}"
                         f"<th>seconds</th></tr>")

            def cells(seconds: dict) -> str:
                return "".join(
                    f"<td>{seconds.get(c, 0.0):.2f}</td>"
                    for c in (*CLASSES, "wait"))

            for scope in ("map", "reduce", "other"):
                totals = rep.phase_seconds(scope)
                if not totals:
                    continue
                top = max(sorted(totals), key=lambda k: totals[k])
                parts.append(f"<tr><td>phase:{scope}</td><td>{top}</td>"
                             f"{cells(totals)}<td>"
                             f"{sum(totals.values()):.2f}</td></tr>")
            totals = rep.class_seconds
            parts.append(f"<tr><td><b>job</b></td><td>{rep.dominant}</td>"
                         f"{cells(totals)}<td>"
                         f"{sum(totals.values()):.2f}</td></tr>")
            parts.append("</table>")
            parts.append("<h2>Critical-path segments</h2>")
            parts.append("<table><tr><th>start</th><th>label</th>"
                         "<th>phase</th><th>blame</th><th>dur&thinsp;s"
                         "</th><th>covered&thinsp;s</th><th>flows</th>"
                         "</tr>")
            for seg in rep.segments:
                parts.append(
                    f"<tr><td>{seg.start:.2f}</td>"
                    f"<td>{_html.escape(seg.label)}</td>"
                    f"<td>{seg.phase}</td><td>{seg.blame}</td>"
                    f"<td>{seg.duration:.2f}</td>"
                    f"<td>{seg.covered_s:.2f}</td>"
                    f"<td>{seg.n_flows}</td></tr>")
            parts.append("</table>")

        if self.window:
            parts.append("<h2>Rolling nmon window</h2>")
            parts.append("<table><tr><th>vm</th><th></th><th>cpu</th>"
                         "<th>disk&thinsp;B/s</th><th>net&thinsp;B/s</th>"
                         "<th>tasks</th></tr>")
            for w in self.window:
                parts.append(
                    f"<tr><td>{_html.escape(w.vm)}</td><td></td>"
                    f"<td>{w.cpu_mean:.0%}</td>"
                    f"<td>{w.disk_rate:,.0f}</td>"
                    f"<td>{w.net_rate:,.0f}</td>"
                    f"<td>{w.activity_mean:.1f}</td></tr>")
            parts.append("</table>")

        return page("observatory report", parts)

    def write_html(self, path: str) -> str:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.html())
        return path


def build_report(obs: "Observatory", job: Optional[str] = None
                 ) -> ObservatoryReport:
    """Extract a report from a (running or stopped) observatory."""
    timeline = path = attribution = None
    if job is not None:
        timeline = obs.telemetry.job_timeline(job)
        path = timeline.critical_path()
        if obs.telemetry.flow_log is not None:
            attribution = obs.telemetry.attribution(job)
    telemetry = obs.telemetry
    window = (window_summaries(telemetry.timeseries,
                               [vm.name for vm in telemetry.monitor.vms],
                               obs.sim.now, obs.window_s)
              if telemetry.vms else [])
    return ObservatoryReport(
        generated_at=obs.sim.now, digest=obs.digest(),
        alerts=obs.alerts(), window=window, job=job,
        timeline=timeline, path=path, attribution=attribution)
