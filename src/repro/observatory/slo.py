"""Declarative SLOs and the alert book.

An :class:`SloSpec` names one observable *signal*, a threshold and a
direction; the detectors (:mod:`repro.observatory.detectors`) evaluate the
signal and, on violation, **fire** an alert against a concrete *target*
(a task id, a VM, a host, a link).  The :class:`AlertBook` deduplicates —
one active :class:`Alert` per ``(slo, target)`` pair, updated in place
while the violation persists — and records fire/resolve edges both as
immutable history and as ``observatory.alert.*`` trace events.

Alerts carry an *attribution* — the resource class the detector blames
(``cpu`` / ``network`` / ``disk`` / ``nfs`` / ``node`` / ``data``) — which
is what the chaos validation matrix checks and what the alert-driven tuner
rules key on.

Everything here is deterministic: :meth:`AlertBook.digest` hashes the full
fire/resolve history with fixed float formatting, so two same-seed runs
must produce byte-identical digests (asserted in CI).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.digest import Digest
from repro.errors import MonitorError
from repro.telemetry import events as EV

#: Alert severities, mildest first (index = rank).
SEVERITIES = ("info", "warning", "critical")


@dataclass(frozen=True)
class SloSpec:
    """One service-level objective over a named signal."""

    name: str                 # e.g. "straggler-task"
    signal: str               # e.g. "task.runtime.madscore"
    threshold: float
    severity: str = "warning"
    direction: str = "above"  # violate when value is above/below threshold
    description: str = ""

    def __post_init__(self):
        if self.severity not in SEVERITIES:
            raise MonitorError(f"unknown severity {self.severity!r}")
        if self.direction not in ("above", "below"):
            raise MonitorError(f"unknown direction {self.direction!r}")

    def violated_by(self, value: float) -> bool:
        if self.direction == "above":
            return value > self.threshold
        return value < self.threshold


@dataclass
class Alert:
    """One (possibly still active) SLO violation against one target."""

    slo: str
    target: str
    severity: str
    attribution: str          # blamed resource class
    fired_at: float
    value: float              # signal value when fired (worst seen)
    detail: str = ""
    resolved_at: Optional[float] = None

    @property
    def active(self) -> bool:
        return self.resolved_at is None

    @property
    def duration(self) -> Optional[float]:
        if self.resolved_at is None:
            return None
        return self.resolved_at - self.fired_at

    def describe(self) -> str:
        state = ("ACTIVE" if self.active
                 else f"resolved @ {self.resolved_at:.2f}")
        return (f"[{self.severity:>8}] {self.slo:<18} {self.target:<14} "
                f"value={self.value:.3f} blames={self.attribution:<8} "
                f"fired @ {self.fired_at:.2f}  {state}"
                + (f"  — {self.detail}" if self.detail else ""))


#: The catalogue the observatory watches by default.  Thresholds are
#: deliberately *relative/robust* (MAD scores, ratios to peer medians,
#: fractions of nominal capacity) so a healthy but busy cluster fires
#: nothing — the chaos matrix asserts zero alerts on the fault-free run.
DEFAULT_SLOS: tuple[SloSpec, ...] = (
    SloSpec("straggler-task", "task.runtime.madscore", 4.0, "warning",
            description="attempt runtime is a robust outlier vs the "
                        "phase's finished-attempt distribution"),
    # Hash partitioning of Zipfian data (natural text, sorted keys) sits
    # near 3x on small reduce counts, so the skew bar clears it: only a
    # genuinely hot key (adversarial hotkey mixes drive 4.5x+) fires.
    SloSpec("reducer-skew", "shuffle.partition.imbalance", 4.0, "warning",
            description="largest reduce partition's shuffle bytes vs the "
                        "median partition"),
    SloSpec("hot-host", "host.cpu.busy", 0.9, "warning",
            description="host CPU busy fraction over the rolling window, "
                        "and well above the cluster median"),
    SloSpec("degraded-link", "link.capacity.fraction", 0.5, "critical",
            direction="below",
            description="saturated NIC moving traffic far below its "
                        "nominal capacity"),
    SloSpec("partitioned-link", "link.capacity.fraction", 0.01, "critical",
            direction="below",
            description="NIC effectively unable to move any traffic"),
    SloSpec("slow-disk", "disk.rate.ratio", 3.0, "critical",
            description="VM disk flows running this far below their "
                        "max-min fair-share floor, sustained"),
    SloSpec("node-down", "vm.alive", 1.0, "critical", direction="below",
            description="worker VM stopped heartbeating (vm.failed)"),
    SloSpec("host-down", "host.vms.alive", 1.0, "critical",
            direction="below",
            description="every resident VM of one host failed together"),
    SloSpec("under-replicated", "hdfs.replication.shortfall", 0.0,
            "warning",
            description="blocks below their replication target"),
)


#: Service-mode SLOs: the names, severities and signal units under which
#: :class:`~repro.observatory.burnrate.BurnRateEngine` fires into the book
#: each control tick (the autoscaler keys on the names).  Targets are the
#: service name, so one alert per service per condition.  *When* one fires
#: is decided by its :data:`~repro.observatory.burnrate.SERVICE_BURN_POLICIES`
#: entry (error budget over window pairs), not by ``threshold``, which only
#: documents the signal level a healthy service stays under — a
#: provisioned-for-its-load service fires nothing, and the experiments
#: assert zero alerts on the clean steady run.
SERVICE_SLOS: tuple[SloSpec, ...] = (
    SloSpec("service-backlog", "service.backlog.per_slot", 3.0, "warning",
            description="queued jobs per schedulable slot — sustained "
                        "values mean the pool is underprovisioned"),
    SloSpec("service-p99", "service.latency.p99.ratio", 1.0, "warning",
            description="rolling p99 completion latency over the tenant "
                        "latency target"),
    SloSpec("service-rejection", "service.rejection.rate", 0.05, "critical",
            description="fraction of recent arrivals rejected by "
                        "admission control"),
)


class AlertBook:
    """Fire/resolve ledger with one active alert per (slo, target)."""

    def __init__(self, sim=None, tracer=None):
        self.sim = sim
        self.tracer = tracer
        self.slos: dict[str, SloSpec] = {}
        self.alerts: list[Alert] = []       # full history, fire order
        self._active: dict[tuple[str, str], Alert] = {}

    def register(self, spec: SloSpec) -> None:
        self.slos[spec.name] = spec

    def spec(self, name: str) -> SloSpec:
        try:
            return self.slos[name]
        except KeyError:
            raise MonitorError(f"unregistered SLO {name!r}") from None

    @property
    def _now(self) -> float:
        return self.sim.now if self.sim is not None else 0.0

    # -- fire / resolve ----------------------------------------------------
    def fire(self, slo: str, target: str, value: float,
             attribution: str, detail: str = "") -> Alert:
        """Raise (or refresh) the alert for ``(slo, target)``.

        While active, repeated fires keep the original ``fired_at`` and
        retain the *worst* observed value.
        """
        spec = self.spec(slo)
        key = (slo, target)
        alert = self._active.get(key)
        if alert is not None:
            worse = (value > alert.value if spec.direction == "above"
                     else value < alert.value)
            if worse:
                alert.value = value
                if detail:
                    alert.detail = detail
            return alert
        alert = Alert(slo=slo, target=target, severity=spec.severity,
                      attribution=attribution, fired_at=self._now,
                      value=value, detail=detail)
        self._active[key] = alert
        self.alerts.append(alert)
        if self.tracer is not None:
            self.tracer.emit(self._now, EV.OBSERVATORY_ALERT_FIRED, target,
                             slo=slo, severity=spec.severity,
                             attribution=attribution, value=value)
        return alert

    def resolve(self, slo: str, target: str) -> Optional[Alert]:
        """Clear the active alert for ``(slo, target)`` if any."""
        alert = self._active.pop((slo, target), None)
        if alert is None:
            return None
        alert.resolved_at = self._now
        if self.tracer is not None:
            self.tracer.emit(self._now, EV.OBSERVATORY_ALERT_RESOLVED,
                             target, slo=slo, severity=alert.severity)
        return alert

    # -- queries -----------------------------------------------------------
    def active(self, slo: Optional[str] = None) -> list[Alert]:
        out = [a for a in self.alerts if a.active]
        if slo is not None:
            out = [a for a in out if a.slo == slo]
        return out

    def history(self, slo: Optional[str] = None) -> list[Alert]:
        if slo is None:
            return list(self.alerts)
        return [a for a in self.alerts if a.slo == slo]

    def is_active(self, slo: str, target: str) -> bool:
        return (slo, target) in self._active

    # -- determinism -------------------------------------------------------
    def digest(self) -> str:
        """Stable content digest over the full fire/resolve history.

        Floats are fixed-formatted so the digest is byte-stable; two
        same-seed runs must agree (asserted by tests and the CI
        ``determinism`` job).
        """
        h = Digest()
        for a in sorted(self.alerts,
                        key=lambda a: (a.fired_at, a.slo, a.target)):
            resolved = ("%.6f" % a.resolved_at
                        if a.resolved_at is not None else "active")
            h.update(f"{a.slo}|{a.target}|{a.severity}|{a.attribution}|"
                     f"{a.fired_at:.6f}|{resolved}|{a.value:.6f}\n")
        return h.hex()
