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
submitted_at, started_at, finished_at, ok)`` and exposes ``backlog()``,
``total_slots()`` and ``utilization()``.  :class:`SlotModelBackend` is the
job-granularity surrogate: counters, not processes, where a job's service
time comes from a :class:`CostModel` fitted against real scheduler runs.
A job's finish is known when it starts, so completions wait in a heap
inside the backend rather than in the kernel: the only kernel event a
submission costs is its arrival's offer-chain link, which is what makes
million-submission runs tractable.
The full-fidelity :class:`~repro.cloud.service.SharedClusterBackend` (one
warm cluster) and :class:`~repro.cloud.service.PerJobClusterBackend` (a
cluster per job) run every admitted arrival as a real MapReduce job.

Determinism: arrivals, decisions and completions are pure functions of
the seed; :meth:`ServiceReport.digest` pins the whole run (trace digest,
counters, autoscaler actions, alert history, burn-rate store) and CI
compares it across two fresh processes.
"""

from __future__ import annotations

import math
from collections import deque
from heapq import heappop, heappush
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

#: Control ticks the timeline's rolling p99 spans.
ROLLING_TICKS = 24


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
        if not 0 < self.base_s < math.inf:
            raise ConfigError(f"base_s must be finite and > 0, "
                              f"got {self.base_s!r}")
        if not 0 <= self.per_mb_s < math.inf:
            raise ConfigError(f"per_mb_s must be finite and >= 0, "
                              f"got {self.per_mb_s!r}")

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

    def shrink(self) -> int:
        """Retire one slot unless at the floor; returns how many (0 or 1)."""
        # Not ``size``: a retiring slot stays in it until it has left.
        if self.backend.total_slots() + self.booting <= self.min_size:
            return 0
        if not self.backend.remove_slot():
            return 0
        self.retired += 1
        return 1


class SlotModelBackend:
    """Job-granularity queueing surrogate over an elastic slot pool.

    Admitted jobs queue FIFO; a free slot takes the head, holds it for
    ``cost.service_time(size_mb)`` and reports completion.  A slot is a
    count, not a process, and a job costs no kernel event: its finish
    time is known when it starts, so pending completions wait in a
    ``(finish_at, seq, tenant, submitted_at, started_at)`` heap inside
    the backend.  Every method and reader first runs :meth:`drain`,
    which applies each completion due by now at its own instant — a job's
    finish comes before every other entry of its instant.  One kernel
    backstop timer, armed at the latest pending finish, lets ``run()``
    alone finish every job.  No tasks, no shuffle, no HDFS — the
    :class:`CostModel` stands in for all of it, calibrated against the
    full simulation.  The elastic pool never shrinks below the ``slots``
    it started with.
    """

    def __init__(self, sim, cost: CostModel, slots: int,
                 elastic_max: int = 512, boot_s: float = 45.0):
        if slots < 1:
            raise ConfigError("slots must be >= 1")
        self.sim = sim
        self.cost = cost
        self._slots = 0
        #: Set by the controller: ``on_done(tenant, submitted_at,
        #: started_at, finished_at, ok)``.
        self.on_done: Optional[Callable] = None
        self._queue: deque = deque()   # (tenant, size_mb, submitted_at)
        self._idle = 0
        #: Idle slots leaving ``slots`` in a pending zero-delay hop, and
        #: busy slots that leave when their job finishes.  Two counts: a
        #: finish landing before the hop must not take the idle slot's exit.
        self._idle_retiring = 0
        self._busy_retiring = 0
        self._busy = 0
        #: Pending completions, the earliest one's time (``inf`` if none:
        #: the one comparison a drain with nothing due costs), the latest
        #: one's, and whether the backstop timer is armed.
        self._pending: list = []
        self._seq = 0
        self._due = math.inf
        self._latest = -math.inf
        self._backstop_armed = False
        self.pool = _SurrogatePool(self, min_size=slots,
                                   max_size=elastic_max, boot_s=boot_s)
        for _ in range(slots):
            self.add_slot()

    # -- lazy completions --------------------------------------------------
    def drain(self) -> None:
        """Apply every completion due by now, in ``(finish_at, seq)``
        order, each at its own instant: a freed slot takes the queue
        head at ``finish_at``, and that job's finish may be due too.
        Callers guard it with ``_due <= now``: one comparison when
        nothing is due."""
        now = self.sim.now
        pending = self._pending
        while pending and pending[0][0] <= now:
            finish_at, _seq, tenant, submitted_at, started_at = \
                heappop(pending)
            self._busy -= 1
            if self.on_done is not None:
                self.on_done(tenant, submitted_at, started_at, finish_at,
                             True)
            self._slot_free(finish_at)
        self._due = pending[0][0] if pending else math.inf

    def _backstop(self) -> None:
        """The one kernel timer: drain, then re-arm at the latest pending
        finish (which every completion pushed since is at most)."""
        self.drain()
        if self._pending:
            self.sim.call_in(self._latest - self.sim.now, self._backstop)
        else:
            self._backstop_armed = False

    # -- capacity ----------------------------------------------------------
    @property
    def slots(self) -> int:
        """Slots counted now, retiring ones included."""
        if self._due <= self.sim.now:
            self.drain()
        return self._slots

    @property
    def busy(self) -> int:
        """Slots holding a job now."""
        if self._due <= self.sim.now:
            self.drain()
        return self._busy

    def add_slot(self) -> None:
        """Count one more slot now; it is free one zero-delay hop later, so
        a control tick at this very instant still sees it without a job."""
        if self._due <= self.sim.now:
            self.drain()
        self._slots += 1
        self.sim.call_in(0.0, self._free_hop)

    def _free_hop(self) -> None:
        if self._due <= self.sim.now:
            self.drain()
        self._slot_free(self.sim.now)

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
        if self._due <= self.sim.now:
            self.drain()
        self._idle_retiring -= 1
        self._slots -= 1

    def total_slots(self) -> int:
        if self._due <= self.sim.now:
            self.drain()
        return self._slots - self._idle_retiring - self._busy_retiring

    def backlog(self) -> int:
        if self._due <= self.sim.now:
            self.drain()
        return len(self._queue)

    def utilization(self) -> float:
        total = self.total_slots()
        return self._busy / total if total > 0 else 1.0

    # -- the service loop --------------------------------------------------
    def submit(self, arrival: Arrival, spec) -> None:
        if self._due <= self.sim.now:
            self.drain()
        now = self.sim.now
        if self._idle:
            self._idle -= 1
            self._start(arrival.tenant, arrival.size_mb, now, now)
        else:
            self._queue.append((arrival.tenant, arrival.size_mb, now))

    def _start(self, tenant: str, size_mb: float, submitted_at: float,
               at: float) -> None:
        """Start a job at instant ``at`` and push its completion."""
        self._busy += 1
        service_s = self.cost.service_time(size_mb)
        finish_at = at + service_s
        self._seq += 1
        heappush(self._pending,
                 (finish_at, self._seq, tenant, submitted_at, at))
        if finish_at < self._due:
            self._due = finish_at
        if finish_at > self._latest:
            self._latest = finish_at
        if not self._backstop_armed:
            # Nothing pending before this push, so no drain is running
            # and ``at`` is now: arm the backstop at this very finish.
            self._backstop_armed = True
            self.sim.call_in(service_s, self._backstop)

    def _slot_free(self, at: float) -> None:
        """A slot has no job at instant ``at``: retire it if a busy
        retirement is owed, else give it the queue head, else it idles."""
        if self._busy_retiring:
            self._busy_retiring -= 1
            self._slots -= 1
        elif self._queue:
            tenant, size_mb, submitted_at = self._queue.popleft()
            self._start(tenant, size_mb, submitted_at, at)
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
            stats = self.tenants.lookup(name)[1]
            h.update(f"{name}|{stats.submitted}|{stats.admitted}|"
                     f"{stats.rejected}|{stats.completed}\n")
        for action in self.actions:
            h.update(action.line() + "\n")
        h.update(self.book.digest())
        h.update(self.trace_digest)
        h.update(self.burn_digest)
        return h.hex()


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
                 tracer=None,
                 verbose_telemetry: bool = False,
                 burn_engine=None):
        if tick_s <= 0:
            raise ConfigError("tick_s must be positive")
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
        # The last ``ROLLING_TICKS`` per-tick latency histograms and their
        # running sum: the timeline's rolling p99.
        self._window: deque = deque(maxlen=ROLLING_TICKS)
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
        spec, stats = self.tenants.lookup(arrival.tenant)
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

    def _on_done(self, tenant: str, submitted_at: float, started_at: float,
                 finished_at: float, ok: bool) -> None:
        # From the reported instant, not ``sim.now``: a slot-model
        # completion is applied after its instant, at the next drain.
        latency = finished_at - submitted_at
        stats = self.tenants.lookup(tenant)[1]
        stats.inflight -= 1
        self.inflight -= 1
        if ok:
            stats.completed += 1
            self.report.completed += 1
            self.report.latency.observe(latency, self._tick_hist)
        else:
            stats.failed += 1
            self.report.failed += 1
        if self.verbose_telemetry and self.tracer is not None:
            self.tracer.emit(finished_at, EV.SERVICE_REQUEST_DONE, tenant,
                             latency=latency, wait=started_at - submitted_at,
                             ok=ok)

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
