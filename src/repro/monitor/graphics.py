"""nmon-analyser graphics, terminal edition.

The real nmon analyser is an Excel workbook that turns nmon output files
into utilization charts.  This module renders the same views as text,
from the raw tier of the monitor's time-series store (one column per
raw-tier bucket, i.e. per sample interval):

* :func:`sparkline` — one metric of one node as a unicode sparkline;
* :func:`render_node_timeline` — the four resource classes of one node,
  stacked;
* :func:`render_cluster_heatmap` — one metric across all nodes over time
  (rows = nodes, columns = sample times) — the view that makes imbalance
  and cross-domain hotspots visible at a glance.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import MonitorError
from repro.monitor.nmon import (CPU, DISK, MEMORY, NET_RX, NET_TX,
                                vm_buckets)
from repro.telemetry.timeseries import TimeSeriesStore

_TICKS = " ▁▂▃▄▅▆▇█"
_HEAT = " .:-=+*#%@"


def _scale(values: Sequence[float], levels: int) -> list[int]:
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise MonitorError("nothing to plot")
    top = arr.max()
    if top <= 0:
        return [0] * arr.size
    return [min(levels - 1, int(v / top * (levels - 1) + 0.5)) for v in arr]


def sparkline(values: Sequence[float]) -> str:
    """One metric as a sparkline, scaled to its own maximum."""
    return "".join(_TICKS[i] for i in _scale(values, len(_TICKS)))


def _means(store: TimeSeriesStore, vm: str, name: str) -> dict[int, float]:
    """Raw-tier bucket index -> mean sample value of one VM's series."""
    return {b.index: b.mean for b in vm_buckets(store, vm, name)}


def render_node_timeline(store: TimeSeriesStore, vm: str) -> str:
    """cpu / memory / disk / net sparklines for one node."""
    cpu = _means(store, vm, CPU)
    if not cpu:
        raise MonitorError(f"no samples for {vm}")
    tx, rx = _means(store, vm, NET_TX), _means(store, vm, NET_RX)
    rows = [("cpu", cpu.values()),
            ("mem", _means(store, vm, MEMORY).values()),
            ("disk", _means(store, vm, DISK).values()),
            ("net", [tx[i] + rx[i] for i in tx])]
    width = max(len(name) for name, _v in rows)
    lines = [f"== {vm} =="]
    for name, values in rows:
        peak = max(values) if values else 0.0
        lines.append(f"{name:>{width}s} |{sparkline(values)}| "
                     f"peak={peak:.3g}")
    return "\n".join(lines)


def render_cluster_heatmap(store: TimeSeriesStore, metric: str = CPU) -> str:
    """Node x time heatmap of one monitor series across the whole cluster.

    Columns are raw-tier bucket indices, shared by every row, so a VM that
    joined late (or missed samples) shows blanks where it has none.
    """
    vms = [dict(labels)["vm"] for (name, labels), _ in store.items()
           if name == metric]
    rows = {vm: cells for vm in vms if (cells := _means(store, vm, metric))}
    if not rows:
        raise MonitorError(f"no samples of {metric}")
    last = max(max(cells) for cells in rows.values())
    first = max(last - store.capacity + 1,
                min(min(cells) for cells in rows.values()))
    top = max(max(cells.values()) for cells in rows.values())
    lines = [f"== cluster heatmap: {metric} (peak={top:.3g}) =="]
    width = max(len(vm) for vm in rows)
    for vm, cells in rows.items():
        glyphs = "".join(
            " " if index not in cells or top <= 0
            else _HEAT[min(len(_HEAT) - 1,
                           int(cells[index] / top * (len(_HEAT) - 1) + 0.5))]
            for index in range(first, last + 1))
        lines.append(f"{vm:>{width}s} |{glyphs}|")
    return "\n".join(lines)
