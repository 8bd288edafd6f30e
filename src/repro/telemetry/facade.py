"""The :class:`Telemetry` facade — one handle per cluster (or datacenter).

Everything observable about a running platform hangs off this object:

* ``telemetry.tracer`` — the shared event/span log;
* ``telemetry.metrics`` — the labelled :class:`MetricsRegistry`;
* ``telemetry.timeseries`` — the bounded sample history;
* ``telemetry.monitor`` / ``telemetry.analyser`` — the nmon sampling loop
  (recording into ``telemetry.timeseries``) and its aggregates (created
  lazily, owned by the facade);
* ``telemetry.bottleneck()`` — the paper's platform diagnosis, folding in
  the shared fair-share resources (host NICs, netback, NFS);
* ``telemetry.job_timeline()`` — span analysis (its ``critical_path()``);
* ``telemetry.export_chrome_trace()`` / ``prometheus_text()`` / CSV.

Go through this facade rather than constructing
:class:`~repro.monitor.nmon.NmonMonitor` directly or walking
``cluster.datacenter`` to reach resources the analyser needs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

from repro.errors import MonitorError
from repro.sim.trace import Span, Tracer
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.timeline import JobTimeline, build_timeline

if TYPE_CHECKING:  # pragma: no cover
    from repro.monitor.analyser import BottleneckReport, NmonAnalyser
    from repro.monitor.nmon import NmonMonitor
    from repro.observatory.attribution import FlowLog, JobBottleneckReport
    from repro.observatory.core import Observatory
    from repro.telemetry.timeseries import TimeSeriesStore
    from repro.virt.datacenter import Datacenter
    from repro.virt.vm import VirtualMachine


class Telemetry:
    """Unified observability handle for one scope (cluster or datacenter)."""

    def __init__(self, sim, tracer: Tracer,
                 metrics: Optional[MetricsRegistry] = None,
                 vms: Optional[Sequence["VirtualMachine"]] = None,
                 datacenter: Optional["Datacenter"] = None):
        self.sim = sim
        self.tracer = tracer
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.datacenter = datacenter
        self._vms = list(vms) if vms is not None else None
        self._monitor: Optional["NmonMonitor"] = None
        self._analyser: Optional["NmonAnalyser"] = None
        self._flow_log: Optional["FlowLog"] = None
        self._timeseries: Optional["TimeSeriesStore"] = None

    # -- scope -----------------------------------------------------------
    @property
    def vms(self) -> list["VirtualMachine"]:
        if self._vms is not None:
            return self._vms
        if self.datacenter is not None:
            return list(self.datacenter.vms.values())
        return []

    def add_vm(self, vm: "VirtualMachine") -> None:
        """Grow the scope to a VM joined after construction (elastic
        scale-out).  If the nmon monitor already exists, the VM starts
        being sampled from the next interval."""
        if self._vms is not None and vm not in self._vms:
            self._vms.append(vm)
        if self._monitor is not None and vm not in self._monitor.vms:
            self._monitor.vms.append(vm)

    # -- nmon monitor ------------------------------------------------------
    @property
    def monitor(self) -> "NmonMonitor":
        """The facade's nmon monitor (created on first access), recording
        into :attr:`timeseries`."""
        if self._monitor is None:
            from repro.monitor.nmon import NmonMonitor
            vms = self.vms
            if not vms:
                raise MonitorError(
                    "telemetry scope has no VMs to monitor yet")
            self._monitor = NmonMonitor(vms, self.timeseries)
        return self._monitor

    @property
    def analyser(self) -> "NmonAnalyser":
        if self._analyser is None:
            from repro.monitor.analyser import NmonAnalyser
            self._analyser = NmonAnalyser(self.monitor)
        return self._analyser

    def start_monitor(self, interval: Optional[float] = None
                      ) -> "NmonMonitor":
        """Begin nmon sampling on this scope's VMs; returns the monitor.
        ``interval`` sets the store's one ``step``: changing it once the
        store holds series raises :class:`~repro.errors.ConfigError`."""
        if interval is not None:
            self.timeseries.step = interval
        self.monitor.start()
        return self.monitor

    def stop_monitor(self) -> None:
        if self._monitor is not None:
            self._monitor.stop()

    # -- time-series store -------------------------------------------------
    @property
    def timeseries(self) -> "TimeSeriesStore":
        """The scope's one sample history (created on first access): the
        nmon monitor records its per-VM series here, and subsystems may
        :meth:`record <repro.telemetry.timeseries.TimeSeriesStore.record>`
        directly."""
        if self._timeseries is None:
            from repro.telemetry.timeseries import TimeSeriesStore
            self._timeseries = TimeSeriesStore(self.sim,
                                               registry=self.metrics)
        return self._timeseries

    # -- flow accounting ---------------------------------------------------
    def enable_flow_log(self) -> "FlowLog":
        """Start recording completed fair-share flows (idempotent).

        The log feeds per-job bottleneck attribution; it only sees flows
        that *finish* after this call.  Enable it before running the job
        you want attributed — ``telemetry.observatory()`` does this for
        you.
        """
        if self._flow_log is None:
            from repro.observatory.attribution import FlowLog
            self._flow_log = FlowLog()
            if self.datacenter is not None:
                self.datacenter.fss.flow_log = self._flow_log
        return self._flow_log

    @property
    def flow_log(self) -> Optional["FlowLog"]:
        return self._flow_log

    # -- platform diagnosis ------------------------------------------------
    def shared_resources(self) -> list:
        """The fair-share resources every cluster contends on (host CPUs,
        NICs, netback/bridge, the NFS server vnic)."""
        if self.datacenter is None:
            return []
        resources = []
        for machine in self.datacenter.machines:
            resources.extend([machine.cpu, machine.net.nic,
                              machine.net.netback, machine.net.bridge])
        resources.append(self.datacenter.image_store.node.vnic)
        return resources

    def bottleneck(self) -> "BottleneckReport":
        """The paper's cluster-wide diagnosis: the busiest shared resource
        over the whole run (:meth:`attribution` is the per-job view)."""
        return self.analyser.bottleneck(self.shared_resources(),
                                        now=self.sim.now)

    def attribution(self, job_name: str) -> "JobBottleneckReport":
        """Per-job, per-phase bottleneck attribution from the flow log."""
        if self._flow_log is None:
            raise MonitorError(
                "flow accounting is off — call telemetry.enable_flow_log() "
                "(or telemetry.observatory()) before running the job")
        from repro.observatory.attribution import attribute
        return attribute(self.job_timeline(job_name), self._flow_log)

    # -- observatory -------------------------------------------------------
    def observatory(self, **kwargs) -> "Observatory":
        """Build an :class:`~repro.observatory.core.Observatory` on this
        scope (enables the flow log as a side effect).  The caller owns
        start/stop; see :mod:`repro.observatory`."""
        from repro.observatory.core import Observatory
        self.enable_flow_log()
        return Observatory(self, **kwargs)

    # -- spans & timelines --------------------------------------------------
    @property
    def spans(self) -> list[Span]:
        return self.tracer.spans

    def job_timeline(self, job_name: str) -> JobTimeline:
        """Reconstruct one job's span tree (latest run under that name)."""
        return build_timeline(job_name, self.tracer.spans)

    # -- exports ------------------------------------------------------------
    def chrome_trace(self) -> dict:
        from repro.telemetry.export import chrome_trace
        return chrome_trace(self.tracer.spans, self.tracer.events)

    def export_chrome_trace(self, path: str) -> str:
        """Write a ``chrome://tracing`` / Perfetto JSON file."""
        from repro.telemetry.export import write_chrome_trace
        return write_chrome_trace(path, self.tracer.spans,
                                  self.tracer.events)

    def prometheus_text(self) -> str:
        from repro.telemetry.export import prometheus_text
        return prometheus_text(self.metrics)

    def metrics_csv(self) -> str:
        from repro.telemetry.export import metrics_csv
        return metrics_csv(self.metrics)

    def spans_csv(self) -> str:
        from repro.telemetry.export import spans_csv
        return spans_csv(self.tracer.spans)

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<Telemetry vms={len(self.vms)} "
                f"spans={len(self.tracer.spans)} "
                f"metrics={len(self.metrics.families)}>")
