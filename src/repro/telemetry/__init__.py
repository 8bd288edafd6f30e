"""Unified telemetry: metrics, spans, timelines, exporters, one facade.

Layout:

* :mod:`repro.telemetry.events` — the registered event/span taxonomy;
* :mod:`repro.telemetry.metrics` — counters/gauges/histograms + registry;
* :mod:`repro.telemetry.timeline` — per-job timelines and critical paths;
* :mod:`repro.telemetry.export` — Chrome trace / Prometheus text / CSV;
* :mod:`repro.telemetry.facade` — the :class:`Telemetry` handle, reachable
  as ``cluster.telemetry`` / ``platform.telemetry``.

Only :mod:`~repro.telemetry.events` is imported eagerly — it is a leaf with
no :mod:`repro` imports, so even the lowest layers (``repro.net``,
``repro.sim``) can use the constants without import cycles.  Everything
else resolves lazily via module ``__getattr__`` (PEP 562).
"""

from __future__ import annotations

from repro.telemetry import events  # noqa: F401  (leaf module, re-exported)

_LAZY = {
    "Telemetry": ("repro.telemetry.facade", "Telemetry"),
    "MetricsRegistry": ("repro.telemetry.metrics", "MetricsRegistry"),
    "MetricFamily": ("repro.telemetry.metrics", "MetricFamily"),
    "Counter": ("repro.telemetry.metrics", "Counter"),
    "Gauge": ("repro.telemetry.metrics", "Gauge"),
    "LatencyHistogram": ("repro.telemetry.metrics", "LatencyHistogram"),
    "JobTimeline": ("repro.telemetry.timeline", "JobTimeline"),
    "CriticalPath": ("repro.telemetry.timeline", "CriticalPath"),
    "PathSegment": ("repro.telemetry.timeline", "PathSegment"),
    "build_timeline": ("repro.telemetry.timeline", "build_timeline"),
    "critical_path": ("repro.telemetry.timeline", "critical_path"),
    "chrome_trace": ("repro.telemetry.export", "chrome_trace"),
    "write_chrome_trace": ("repro.telemetry.export", "write_chrome_trace"),
    "prometheus_text": ("repro.telemetry.export", "prometheus_text"),
    "metrics_csv": ("repro.telemetry.export", "metrics_csv"),
    "spans_csv": ("repro.telemetry.export", "spans_csv"),
    "TimeSeries": ("repro.telemetry.timeseries", "TimeSeries"),
    "TimeSeriesStore": ("repro.telemetry.timeseries", "TimeSeriesStore"),
    "HistogramSeries": ("repro.telemetry.timeseries", "HistogramSeries"),
    "Bucket": ("repro.telemetry.timeseries", "Bucket"),
}

__all__ = ["events"] + sorted(_LAZY)


def __getattr__(name: str):
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    import importlib
    value = getattr(importlib.import_module(module_name), attr)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
