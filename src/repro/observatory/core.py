"""The :class:`Observatory` — online detection wired onto one cluster.

An observatory attaches to a telemetry facade (and optionally its
cluster, for namenode access), registers the SLO catalogue, subscribes
its detectors to the tracer, and starts a
:class:`~repro.sim.kernel.PeriodicCall` that gives every detector a
``tick``.  While running it:

* fires/resolves :class:`~repro.observatory.slo.Alert`\\ s through one
  :class:`~repro.observatory.slo.AlertBook` (also emitted as
  ``observatory.alert.*`` trace events);
* keeps the flow log enabled so per-job bottleneck attribution
  (:func:`~repro.observatory.attribution.attribute`) has data.

The observatory is strictly read-only with respect to the simulation: it
opens no flows, consumes no randomness, and only adds its own timer
events — so a detectors-on run leaves simulated outputs and the engine's
deterministic counters bit-identical (checked by
``tests/observatory/test_observatory_runs.py::test_detectors_on_run_is_bit_identical``).

Stop it (:meth:`Observatory.stop`) once the workload is done: nothing of
it stays queued, so it neither keeps the simulation alive nor drags the
clock.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

from repro.errors import MonitorError
from repro.observatory.detectors import DEFAULT_DETECTORS, Detector
from repro.observatory.slo import DEFAULT_SLOS, Alert, AlertBook
from repro.sim.kernel import PeriodicCall

if TYPE_CHECKING:  # pragma: no cover
    from repro.observatory.attribution import JobBottleneckReport
    from repro.observatory.report import ObservatoryReport
    from repro.telemetry.facade import Telemetry


class Observatory:
    """Online anomaly detection + SLO alerting for one cluster scope."""

    def __init__(self, telemetry: "Telemetry", cluster=None,
                 interval: float = 5.0, window: float = 30.0,
                 detectors: Sequence[type] = DEFAULT_DETECTORS):
        if interval <= 0:
            raise MonitorError(f"interval must be > 0, got {interval}")
        self.telemetry = telemetry
        self.cluster = cluster
        self.sim = telemetry.sim
        self.interval = float(interval)
        self.window_s = float(window)
        self.book = AlertBook(self.sim, telemetry.tracer)
        for spec in DEFAULT_SLOS:
            self.book.register(spec)
        #: Shared fair-share resources the load/link detectors watch.
        self.resources = telemetry.shared_resources()
        self.detectors: list[Detector] = [cls(self) for cls in detectors]
        self.ticks = 0
        self._loop = PeriodicCall(self.sim, self._tick)
        self._started_monitor = False

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> "Observatory":
        """Begin watching (idempotent); returns self for chaining."""
        if self._loop.running:
            return self
        self.telemetry.enable_flow_log()
        if self.telemetry.vms:
            monitor = self.telemetry.monitor
            if not monitor.running:
                self.telemetry.start_monitor()
                self._started_monitor = True
        for detector in self.detectors:
            for prefix in detector.prefixes:
                self.telemetry.tracer.subscribe(detector.on_event, prefix)
        self._loop.start()
        return self

    def stop(self) -> None:
        """Stop ticking (idempotent): nothing stays armed."""
        if not self._loop.running:
            return
        self._loop.stop()
        for detector in self.detectors:
            if detector.prefixes:
                self.telemetry.tracer.unsubscribe(detector.on_event)
        if self._started_monitor:
            self.telemetry.stop_monitor()
            self._started_monitor = False

    def _tick(self) -> float:
        self.tick_now()
        return self.interval

    def tick_now(self) -> None:
        """Run one detector evaluation pass at the current sim time."""
        now = self.sim.now
        self.ticks += 1
        for detector in self.detectors:
            detector.tick(now)

    # -- queries -----------------------------------------------------------
    @property
    def running(self) -> bool:
        return self._loop.running

    def alerts(self, slo: Optional[str] = None) -> list[Alert]:
        """Full alert history (optionally one SLO's)."""
        return self.book.history(slo)

    def digest(self) -> str:
        """Deterministic content digest of the alert history."""
        return self.book.digest()

    def attribution(self, job_name: str) -> "JobBottleneckReport":
        """Per-job critical-path bottleneck attribution."""
        return self.telemetry.attribution(job_name)

    def report(self, job: Optional[str] = None) -> "ObservatoryReport":
        """Assemble the renderable report (terminal and HTML)."""
        from repro.observatory.report import build_report
        return build_report(self, job=job)

    def __repr__(self) -> str:  # pragma: no cover
        state = "running" if self.running else "stopped"
        return (f"<Observatory {state} detectors={len(self.detectors)} "
                f"alerts={len(self.book.alerts)}>")
