"""The always-on service controller: traffic → admission → backend → SLOs.

:class:`ServiceController` runs as two ``Simulator.call_in`` callback
chains over one arrival stream (the controller starts no sim process):

* the **offer** chain replays the open-loop traffic one callback per
  arrival: it asks the :class:`~repro.cloud.admission.AdmissionController`
  for a verdict (quota, then graded load shedding), hands admitted work
  to the backend and re-arms itself for the next arrival;
* the **control** chain ticks every ``tick_s``: it records the tick's
  error fractions (completions over the latency target, arrivals
  rejected, backlog per slot over its objective) into the
  :class:`~repro.observatory.burnrate.BurnRateEngine`, which fires and
  resolves the :data:`~repro.observatory.slo.SERVICE_SLOS` in the
  :class:`~repro.observatory.slo.AlertBook`; then lets the
  :class:`~repro.cloud.autoscaler.ElasticAutoscaler` act on the book, and
  samples the public timeline (workers / backlog / in-flight /
  utilisation / rolling p99).

The controller is the service's one front door.  A backend takes
``submit(arrival, spec)``, reports each job once through ``on_done(tenant,
submitted_at, wait_s, ok)`` and exposes ``backlog()``, ``total_slots()``
and ``utilization()``.  :class:`SlotModelBackend` is the job-granularity
surrogate: counters, not processes, where a job's service time comes from
a :class:`CostModel` fitted against real scheduler runs — two kernel
events per job, which is what makes million-submission runs tractable.
The full-fidelity :class:`~repro.cloud.service.SharedClusterBackend` (one
warm cluster) and :class:`~repro.cloud.service.PerJobClusterBackend` (a
cluster per job) run every admitted arrival as a real MapReduce job.

Determinism: arrivals, decisions and completions are pure functions of
the seed; :meth:`ServiceReport.digest` pins the whole run (trace digest,
counters, autoscaler actions, alert history, burn-rate store) and CI
compares it across two fresh processes.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional

from repro.cloud.admission import (ADMIT, REJECT_OVERLOAD, REJECT_QUOTA,
                                   AdmissionController)
from repro.cloud.tenants import LatencyHistogram, TenantRegistry
from repro.cloud.traffic import Arrival, ArrivalProcess
from repro.digest import Digest
from repro.errors import ConfigError
from repro.observatory.burnrate import BurnRateEngine
from repro.observatory.slo import SERVICE_SLOS, AlertBook
from repro.telemetry import events as EV
from repro.telemetry.timeseries import TimeSeriesStore

#: Arrival lines hashed per trace-digest update.  SHA-256 over the
#: concatenated lines is the same digest however they are chunked.
TRACE_CHUNK = 1024


# -- the surrogate cost model ------------------------------------------------
@dataclass(frozen=True)
class CostModel:
    """Linear job-service-time model: ``base_s + per_mb_s * size_mb``.

    Fit it from real runs (:meth:`fit`) so the surrogate backend's
    latencies track the full simulation's.
    """

    base_s: float = 30.0
    per_mb_s: float = 0.05

    def __post_init__(self) -> None:
        if self.base_s <= 0 or self.per_mb_s < 0:
            raise ConfigError("need base_s > 0 and per_mb_s >= 0")

    def service_time(self, size_mb: float) -> float:
        return self.base_s + self.per_mb_s * size_mb

    @classmethod
    def fit(cls, samples: list) -> "CostModel":
        """Least-squares fit of (size_mb, elapsed_s) pairs."""
        if len(samples) < 2:
            raise ConfigError("need >= 2 calibration samples")
        n = len(samples)
        sx = sum(s for s, _ in samples)
        sy = sum(e for _, e in samples)
        sxx = sum(s * s for s, _ in samples)
        sxy = sum(s * e for s, e in samples)
        denom = n * sxx - sx * sx
        if abs(denom) < 1e-12:
            return cls(base_s=max(1e-3, sy / n), per_mb_s=0.0)
        slope = (n * sxy - sx * sy) / denom
        intercept = (sy - slope * sx) / n
        return cls(base_s=max(1e-3, intercept), per_mb_s=max(0.0, slope))


# -- backends ----------------------------------------------------------------
class _SurrogatePool:
    """ScalingTarget over the surrogate backend's slot count."""

    def __init__(self, backend: "SlotModelBackend", min_size: int,
                 max_size: int, boot_s: float):
        self.backend = backend
        self.min_size = min_size
        self.max_size = max_size
        self.boot_s = boot_s
        self.booting = 0
        self.retired = 0

    @property
    def size(self) -> int:
        return self.backend.slots + self.booting

    def grow(self, n: int = 1, avoid_hosts=()) -> int:
        started = 0
        for _ in range(n):
            if self.size >= self.max_size:
                break
            self.booting += 1
            self.backend.sim.call_in(self.boot_s, self._bring_up)
            started += 1
        return started

    def _bring_up(self) -> None:
        self.booting -= 1
        self.backend.add_slot()

    def shrink(self, n: int = 1) -> int:
        stopped = 0
        for _ in range(n):
            # Not ``size``: a retiring slot stays in it until it has left.
            if self.backend.total_slots() + self.booting <= self.min_size:
                break
            if not self.backend.remove_slot():
                break
            self.retired += 1
            stopped += 1
        return stopped


class SlotModelBackend:
    """Job-granularity queueing surrogate over an elastic slot pool.

    Admitted jobs queue FIFO; a free slot takes the head, holds it for
    ``cost.service_time(size_mb)`` and reports completion.  A slot is a
    count, not a process: the only kernel event a job costs here is the
    ``call_in`` that finishes it.  No tasks, no shuffle, no HDFS — the
    :class:`CostModel` stands in for all of it, calibrated against the
    full simulation.
    """

    def __init__(self, sim, cost: CostModel, slots: int,
                 elastic_min: Optional[int] = None, elastic_max: int = 512,
                 boot_s: float = 45.0):
        if slots < 1:
            raise ConfigError("slots must be >= 1")
        self.sim = sim
        self.cost = cost
        self.slots = 0
        #: Set by the controller: ``on_done(tenant, submitted_at, wait_s)``.
        self.on_done: Optional[Callable] = None
        self._queue: deque = deque()   # (tenant, size_mb, enqueued_at)
        self._idle = 0
        #: Idle slots leaving ``slots`` in a pending zero-delay hop, and
        #: busy slots that leave when their job finishes.  Two counts: a
        #: finish landing before the hop must not take the idle slot's exit.
        self._idle_retiring = 0
        self._busy_retiring = 0
        self.busy = 0
        self.pool = _SurrogatePool(
            self, min_size=slots if elastic_min is None else elastic_min,
            max_size=elastic_max, boot_s=boot_s)
        for _ in range(slots):
            self.add_slot()

    # -- capacity ----------------------------------------------------------
    def add_slot(self) -> None:
        """Count one more slot now; it is free one zero-delay hop later, so
        a control tick at this very instant still sees it without a job."""
        self.slots += 1
        self.sim.call_in(0.0, self._slot_free)

    def remove_slot(self) -> bool:
        """Gracefully retire one slot (takes effect between jobs)."""
        if self.total_slots() <= 0:
            return False
        if self._idle:
            self._idle -= 1
            self._idle_retiring += 1
            self.sim.call_in(0.0, self._retire_idle)
        else:
            self._busy_retiring += 1
        return True

    def _retire_idle(self) -> None:
        self._idle_retiring -= 1
        self.slots -= 1

    def total_slots(self) -> int:
        return self.slots - self._idle_retiring - self._busy_retiring

    def backlog(self) -> int:
        return len(self._queue)

    def utilization(self) -> float:
        total = self.total_slots()
        return self.busy / total if total > 0 else 1.0

    # -- the service loop --------------------------------------------------
    def submit(self, arrival: Arrival, spec) -> None:
        job = (arrival.tenant, arrival.size_mb, self.sim.now)
        if self._idle:
            self._idle -= 1
            self._start(*job)
        else:
            self._queue.append(job)

    def _start(self, tenant: str, size_mb: float, enqueued_at: float) -> None:
        self.busy += 1
        self.sim.call_in(self.cost.service_time(size_mb), self._finish,
                         tenant, enqueued_at, self.sim.now - enqueued_at)

    def _finish(self, tenant: str, enqueued_at: float, wait_s: float) -> None:
        self.busy -= 1
        if self.on_done is not None:
            self.on_done(tenant, enqueued_at, wait_s, True)
        self._slot_free()

    def _slot_free(self) -> None:
        """A slot has no job: retire it if a busy retirement is owed, else
        give it the queue head, else it idles."""
        if self._busy_retiring:
            self._busy_retiring -= 1
            self.slots -= 1
        elif self._queue:
            self._start(*self._queue.popleft())
        else:
            self._idle += 1


# -- the report --------------------------------------------------------------
@dataclass
class TimelinePoint:
    at: float
    workers: int
    backlog: int
    inflight: int
    utilization: float
    p99: float

    def as_row(self) -> list:
        return [round(self.at, 3), self.workers, self.backlog,
                self.inflight, round(self.utilization, 4),
                round(self.p99, 3)]


class ServiceReport:
    """Everything measured about one service run."""

    def __init__(self, name: str, tenants: TenantRegistry,
                 book: AlertBook):
        self.name = name
        self.tenants = tenants
        self.book = book
        self.submitted = 0
        self.admitted = 0
        self.rejected_quota = 0
        self.rejected_overload = 0
        self.completed = 0
        self.failed = 0
        self.latency = LatencyHistogram()
        self.queue_wait = LatencyHistogram()
        self.timeline: list[TimelinePoint] = []
        self.actions: list = []          # autoscaler ScalingActions
        self.trace_digest = ""
        #: Digest of the burn-rate engine's time-series store.
        self.burn_digest = ""
        self.horizon_s = 0.0
        self.finished_at = 0.0
        #: Kernel events the run cost (a cost counter: not in the digest).
        self.kernel_events = 0

    @property
    def rejected(self) -> int:
        return self.rejected_quota + self.rejected_overload

    @property
    def rejection_rate(self) -> float:
        return self.rejected / self.submitted if self.submitted else 0.0

    @property
    def goodput(self) -> float:
        return self.completed / self.submitted if self.submitted else 0.0

    def counters(self) -> dict:
        return {
            "submitted": self.submitted,
            "admitted": self.admitted,
            "rejected_quota": self.rejected_quota,
            "rejected_overload": self.rejected_overload,
            "completed": self.completed,
            "failed": self.failed,
            "alerts": len(self.book.alerts),
            "scaling_actions": len(self.actions),
        }

    def digest(self) -> str:
        """Stable digest over counters, tenants, actions and alerts."""
        h = Digest()
        for key, value in sorted(self.counters().items()):
            h.update(f"{key}={value}\n")
        for name in sorted(self.tenants.names):
            stats = self.tenants.stats(name)
            h.update(f"{name}|{stats.submitted}|{stats.admitted}|"
                     f"{stats.rejected}|{stats.completed}\n")
        for action in self.actions:
            h.update(action.line() + "\n")
        h.update(self.book.digest())
        h.update(self.trace_digest)
        h.update(self.burn_digest)
        return h.hex()

    def as_dict(self, timeline_stride: int = 1) -> dict:
        per_tenant = {name: self.tenants.stats(name).as_dict()
                      for name in sorted(self.tenants.names)}
        return {
            "service": self.name,
            "horizon_s": self.horizon_s,
            "finished_at": round(self.finished_at, 3),
            "kernel_events": self.kernel_events,
            "counters": self.counters(),
            "rejection_rate": round(self.rejection_rate, 6),
            "goodput": round(self.goodput, 6),
            "latency_p50": round(self.latency.p50, 3),
            "latency_p99": round(self.latency.p99, 3),
            "wait_p50": round(self.queue_wait.p50, 3),
            "wait_p99": round(self.queue_wait.p99, 3),
            "n_tenants": len(self.tenants),
            "tenants": per_tenant,
            "timeline": [p.as_row() for p
                         in self.timeline[::max(1, timeline_stride)]],
            "scaling_actions": [a.line() for a in self.actions],
            "alerts": [a.slo for a in self.book.alerts],
            "trace_digest": self.trace_digest,
            "burn_digest": self.burn_digest,
            "digest": self.digest(),
        }

    def to_json(self, timeline_stride: int = 1) -> str:
        return json.dumps(self.as_dict(timeline_stride), indent=2,
                          sort_keys=True)


# -- the controller ----------------------------------------------------------
class ServiceController:
    """Runs one always-on service: open-loop traffic through admission
    into a backend, with burn-rate SLO alerting and (optionally)
    autoscaling."""

    def __init__(self, sim, backend, tenants: TenantRegistry,
                 traffic: ArrivalProcess,
                 admission: Optional[AdmissionController] = None,
                 book: Optional[AlertBook] = None,
                 autoscaler=None,
                 name: str = "service",
                 tick_s: float = 5.0,
                 latency_target_s: float = 600.0,
                 rolling_ticks: int = 24,
                 tracer=None,
                 verbose_telemetry: bool = False,
                 burn_engine=None):
        if tick_s <= 0:
            raise ConfigError("tick_s must be positive")
        if rolling_ticks < 1:
            raise ConfigError("rolling_ticks must be >= 1")
        self.sim = sim
        self.backend = backend
        self.tenants = tenants
        self.traffic = traffic
        self.admission = admission or AdmissionController()
        self.book = book if book is not None else AlertBook(sim=sim,
                                                            tracer=tracer)
        for spec in SERVICE_SLOS:
            if spec.name not in self.book.slos:
                self.book.register(spec)
        self.autoscaler = autoscaler
        self.name = name
        if burn_engine is None:
            burn_engine = BurnRateEngine(TimeSeriesStore(sim, step=tick_s),
                                         self.book, target=name)
        elif burn_engine.book is not self.book:
            raise ConfigError("burn_engine fires into a different alert "
                              "book than the controller's")
        #: The :class:`~repro.observatory.burnrate.BurnRateEngine` that
        #: fires the service SLOs into ``book``, where the autoscaler
        #: looks (built here unless the caller passed its own).
        self.burn_engine = burn_engine
        self.tick_s = tick_s
        self.latency_target_s = latency_target_s
        self.tracer = tracer
        #: Per-request trace events are off by default: a million-arrival
        #: run must not materialize a million TraceEvents.  Aggregates
        #: always land in the report.
        self.verbose_telemetry = verbose_telemetry
        self.report = ServiceReport(name, tenants, self.book)
        self.inflight = 0
        backend.on_done = self._on_done
        self._trace_hash = Digest()
        self._trace_lines: list[str] = []
        self._offer_done = False
        # The last ``rolling_ticks`` per-tick latency histograms and their
        # running sum: the timeline's rolling p99.
        self._window: deque = deque(maxlen=rolling_ticks)
        self._rolling_hist = LatencyHistogram()
        self._tick_hist = LatencyHistogram()
        self._tick_submitted = 0
        self._tick_rejected = 0

    # -- lifecycle ---------------------------------------------------------
    def run(self, horizon_s: float) -> ServiceReport:
        """Offer traffic until ``horizon_s``, drain, return the report."""
        if horizon_s <= 0:
            raise ConfigError("horizon_s must be positive")
        self.report.horizon_s = horizon_s
        done = self.sim.event()
        before = self.sim.events_processed
        self._offer(self.traffic.stream(horizon_s))
        self.sim.call_in(self.tick_s, self._control, done)
        self.sim.run_until(done)
        self.report.kernel_events = self.sim.events_processed - before
        self.report.finished_at = self.sim.now
        self._hash_trace()
        self.report.trace_digest = self._trace_hash.hex()
        self.report.burn_digest = self.burn_engine.digest()
        if self.autoscaler is not None:
            self.report.actions = list(self.autoscaler.actions)
        return self.report

    # -- offer path --------------------------------------------------------
    def _offer(self, stream, arrival: Optional[Arrival] = None) -> None:
        """One link of the offer chain: handle the due ``arrival`` (none
        on the first call) and whatever ``stream`` yields that is already
        due, then re-arm for the first arrival that is not."""
        if arrival is not None:
            self._handle(arrival)
        for arrival in stream:
            delay = arrival.at - self.sim.now
            if delay > 0:
                self.sim.call_in(delay, self._offer, stream, arrival)
                return
            self._handle(arrival)
        self._offer_done = True

    def _hash_trace(self) -> None:
        """Fold the pending arrival lines into the trace digest."""
        lines = self._trace_lines
        if lines:
            self._trace_hash.update("\n".join(lines) + "\n")
            lines.clear()

    def _handle(self, arrival: Arrival) -> None:
        lines = self._trace_lines
        lines.append(arrival.line())
        if len(lines) == TRACE_CHUNK:
            self._hash_trace()
        spec = self.tenants.spec(arrival.tenant)
        stats = self.tenants.stats(arrival.tenant)
        stats.submitted += 1
        self.report.submitted += 1
        self._tick_submitted += 1
        slots = self.backend.total_slots()
        overload = self.backend.backlog() / max(1, slots)
        decision = self.admission.decide(spec, stats, overload)
        if self.verbose_telemetry and self.tracer is not None:
            self.tracer.emit(self.sim.now, EV.CLOUD_ADMISSION,
                             arrival.request_id, tenant=arrival.tenant,
                             decision=decision.decision,
                             reason=decision.reason)
        if decision.decision == REJECT_QUOTA:
            stats.rejected_quota += 1
            self.report.rejected_quota += 1
            self._tick_rejected += 1
            return
        if decision.decision == REJECT_OVERLOAD:
            stats.rejected_overload += 1
            self.report.rejected_overload += 1
            self._tick_rejected += 1
            return
        assert decision.decision == ADMIT
        stats.admitted += 1
        stats.inflight += 1
        self.report.admitted += 1
        self.inflight += 1
        self.backend.submit(arrival, spec)

    def _on_done(self, tenant: str, submitted_at: float, wait_s: float,
                 ok: bool) -> None:
        now = self.sim.now
        latency = now - submitted_at
        stats = self.tenants.stats(tenant)
        stats.inflight -= 1
        self.inflight -= 1
        if ok:
            stats.completed += 1
            self.report.completed += 1
            stats.latency.observe(latency, self.report.latency,
                                  self._tick_hist)
            stats.queue_wait.observe(wait_s, self.report.queue_wait)
            stats.busy_slot_seconds += latency - wait_s
        else:
            stats.failed += 1
            self.report.failed += 1
        if self.verbose_telemetry and self.tracer is not None:
            self.tracer.emit(now, EV.SERVICE_REQUEST_DONE, tenant,
                             latency=latency, wait=wait_s, ok=ok)

    # -- control path ------------------------------------------------------
    def _control(self, done) -> None:
        self._tick()
        if (self._offer_done and self.inflight == 0
                and self.backend.backlog() == 0):
            done.succeed(None)
        else:
            self.sim.call_in(self.tick_s, self._control, done)

    def _rolling(self, closing: LatencyHistogram) -> float:
        """Close one tick's histogram into the window; the rolling p99
        over it.  The window histogram is kept, not rebuilt: integer bin
        counts are added and subtracted exactly, so it reads the same
        p99 as merging the window from scratch."""
        window, merged = self._window, self._rolling_hist
        if len(window) == window.maxlen:
            merged.subtract(window[0])
        window.append(closing)
        merged.merge(closing)
        merged.max_seen = max(hist.max_seen for hist in window)
        return merged.p99

    def _tick(self) -> None:
        now = self.sim.now
        slots = self.backend.total_slots()
        backlog = self.backend.backlog()
        utilization = self.backend.utilization()
        # Error fractions of *this* tick, recorded before the
        # accumulators reset: the engine's windows do the rolling.
        self.burn_engine.observe_service_tick(
            now,
            latency_error=self._tick_hist.fraction_above(
                self.latency_target_s),
            rejection_frac=(self._tick_rejected / self._tick_submitted
                            if self._tick_submitted else 0.0),
            backlog_per_slot=backlog / max(1, slots))
        p99 = self._rolling(self._tick_hist)
        self._tick_hist = LatencyHistogram()
        self._tick_submitted = 0
        self._tick_rejected = 0
        self.burn_engine.evaluate(now)
        if self.autoscaler is not None:
            self.autoscaler.tick(now, utilization)
        self.report.timeline.append(TimelinePoint(
            at=now, workers=slots, backlog=backlog, inflight=self.inflight,
            utilization=utilization, p99=p99))
