"""nmon analyser: summaries and bottleneck classification.

The original ``nmon analyser`` is an Excel workbook that charts nmon output
files; what the paper uses it for is finding the platform bottleneck.  This
module computes the same aggregates programmatically:

* per-node summaries (mean/peak of each resource class);
* a platform-level :class:`BottleneckReport` that also folds in the shared
  resources (host NICs, netback, NFS) and names the busiest one —
  reproducing the paper's conclusion that network I/O and NFS disk I/O are
  vHadoop's main bottlenecks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.errors import MonitorError
from repro.monitor.nmon import (CPU, DISK, MEMORY, NET_RX, NET_TX,
                                NmonMonitor, vm_buckets)


@dataclass(frozen=True)
class SeriesSummary:
    """Aggregate of one node's series."""

    vm: str
    n_samples: int
    cpu_mean: float
    cpu_peak: float
    memory_mean: float
    disk_bytes_total: float
    net_bytes_total: float


@dataclass(frozen=True)
class BottleneckReport:
    """Platform-level diagnosis."""

    busiest_resource: str
    busy_fractions: dict
    node_summaries: list

    def top(self, n: int = 3) -> list[tuple[str, float]]:
        ranked = sorted(self.busy_fractions.items(), key=lambda kv: -kv[1])
        return ranked[:n]


def _whole_run(store, vm: str, name: str) -> tuple[int, float, float]:
    """``(count, total, max)`` of one VM's series over the whole run.

    Read from the coarsest tier, which retains the longest; count, total
    and max merge exactly across buckets, so any tier that still holds
    every sample gives the same aggregates.
    """
    buckets = vm_buckets(store, vm, name, tier=-1)
    return (sum(b.count for b in buckets), sum(b.total for b in buckets),
            max((b.max for b in buckets), default=0.0))


class NmonAnalyser:
    """Turns monitor series (and shared-resource counters) into reports."""

    def __init__(self, monitor: NmonMonitor):
        self.monitor = monitor

    def summarize(self, vm_name: str) -> SeriesSummary:
        summary = self._summarize(vm_name)
        if summary is None:
            raise MonitorError(f"no samples collected for {vm_name}")
        return summary

    def _summarize(self, vm: str) -> Optional[SeriesSummary]:
        store = self.monitor.store
        n, cpu_total, cpu_peak = _whole_run(store, vm, CPU)
        if not n:
            return None
        return SeriesSummary(
            vm=vm,
            n_samples=n,
            cpu_mean=cpu_total / n,
            cpu_peak=cpu_peak,
            memory_mean=_whole_run(store, vm, MEMORY)[1] / n,
            disk_bytes_total=_whole_run(store, vm, DISK)[1],
            net_bytes_total=(_whole_run(store, vm, NET_TX)[1]
                             + _whole_run(store, vm, NET_RX)[1]),
        )

    def summaries(self) -> list[SeriesSummary]:
        found = (self._summarize(vm.name) for vm in self.monitor.vms)
        return [summary for summary in found if summary is not None]

    def bottleneck(self, shared_resources: Sequence,
                   now: float) -> BottleneckReport:
        """Diagnose the platform bottleneck.

        ``shared_resources`` are :class:`~repro.sim.fairshare.SharedResource`
        objects (host NICs, netback, NFS vnic, CPUs); their busy fractions
        over ``[0, now]`` are compared and the busiest wins (at ``now`` 0
        nothing has been busy yet: every fraction is 0).
        """
        if not shared_resources:
            raise MonitorError("nothing to analyse: no shared resources")
        busy = {res.name: res.busy_time(now) / now if now > 0 else 0.0
                for res in shared_resources}
        return BottleneckReport(
            busiest_resource=max(busy, key=busy.get),  # type: ignore[arg-type]
            busy_fractions=busy, node_summaries=self.summaries())

    def imbalance(self) -> float:
        """Coefficient of variation of per-node CPU means — the tuner's
        signal for load-balancing migrations."""
        means = [s.cpu_mean for s in self.summaries()]
        if not means:
            raise MonitorError("nothing to analyse")
        arr = np.asarray(means)
        if arr.mean() == 0:
            return 0.0
        return float(arr.std() / arr.mean())
