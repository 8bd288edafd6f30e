"""Streaming anomaly detectors.

Each detector watches one class of failure through *legitimately
observable* signals — trace events, the fair-share busy-time and
bytes-moved integrals, live flows, the namenode's replica counts — never
the chaos injector's own state.  The observatory drives them two ways:

* ``on_event(event)`` — called synchronously from tracer subscriptions
  (task attempt edges, shuffle fetches, VM lifecycle events);
* ``tick(now)`` — called from the observatory's periodic sim process.

Detectors fire/resolve alerts through the shared :class:`AlertBook`;
thresholds come from the registered :class:`SloSpec`s so experiments can
tighten or loosen them declaratively.

All state is plain counters, dicts, and (for the rate detectors)
sim-time series buckets in a :class:`~repro.telemetry.timeseries.
TimeSeriesStore`: detectors never open flows, never consume randomness,
and never block — a detectors-on run must leave the simulated outcome
bit-identical (asserted by the perf bench).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.observatory.attribution import classify
from repro.telemetry import events as EV
from repro.telemetry.timeseries import TimeSeriesStore

if TYPE_CHECKING:  # pragma: no cover
    from repro.observatory.core import Observatory

_EPS = 1e-9
#: 1 / Φ⁻¹(3/4): scales a median-absolute-deviation onto σ for normal
#: data, the conventional robust z-score denominator.
_MAD_SIGMA = 1.4826


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0
    mid = n // 2
    if n % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


class Detector:
    """Base detector: override :meth:`tick` and/or :meth:`on_event`."""

    #: Tracer-kind prefixes this detector wants events for.
    prefixes: tuple[str, ...] = ()

    def __init__(self, obs: "Observatory"):
        self.obs = obs
        self.book = obs.book

    def tick(self, now: float) -> None:  # pragma: no cover - default
        pass

    def on_event(self, event) -> None:  # pragma: no cover - default
        pass


class StragglerDetector(Detector):
    """Task attempts running far beyond the phase's robust runtime norm.

    Finished attempt runtimes per attempt kind (map / reduce) feed a
    median/MAD baseline; a *running* attempt whose age exceeds both the
    MAD-score threshold and an absolute 1.5× median guard is flagged.
    The guard keeps tight distributions (MAD → 0 on homogeneous clusters)
    from flagging ordinary jitter.
    """

    prefixes = ("task.map.attempt.", "task.reduce.attempt.")
    MIN_SAMPLES = 5
    MIN_RATIO = 1.5

    def __init__(self, obs: "Observatory"):
        super().__init__(obs)
        #: span id → ((kind, job), alert target, start time)
        self._running: dict[int, tuple[tuple[str, str], str, float]] = {}
        #: (kind, job) → finished runtimes.  Baselines are per *job*: a
        #: heavy job's normal attempts are not stragglers just because a
        #: concurrent tiny job finishes its own attempts faster.
        self._finished: dict[tuple[str, str], list[float]] = {}

    def on_event(self, event) -> None:
        span_id = event.attrs.get("span")
        kind = event.kind.rsplit(".", 1)[0]
        job = str(event.attrs.get("job", ""))
        if event.kind.endswith(".start"):
            target = f"{job}:{event.source}" if job else event.source
            self._running[span_id] = ((kind, job), target, event.time)
            return
        started = self._running.pop(span_id, None)
        if started is None:
            return
        group, target, start = started
        self.book.resolve("straggler-task", target)
        if not event.attrs.get("failed"):
            self._finished.setdefault(group, []).append(event.time - start)

    def tick(self, now: float) -> None:
        spec = self.book.spec("straggler-task")
        for group, target, start in self._running.values():
            runtimes = self._finished.get(group, ())
            if len(runtimes) < self.MIN_SAMPLES:
                continue
            med = _median(list(runtimes))
            mad = _median([abs(r - med) for r in runtimes])
            age = now - start
            score = (age - med) / max(_MAD_SIGMA * mad, _EPS)
            if spec.violated_by(score) and age >= self.MIN_RATIO * med:
                self.book.fire(
                    "straggler-task", target, score, "node",
                    detail=f"{group[0]} running {age:.1f}s vs median "
                           f"{med:.1f}s")


class SkewDetector(Detector):
    """Reduce-partition shuffle-byte imbalance.

    Shuffle fetch spans carry ``nbytes``; accumulating them per partition
    gives each reducer's input size as it materializes.  The largest
    partition is compared against the median — hash partitioning keeps
    this near 1, a hot key drives it up.
    """

    prefixes = ("shuffle.fetch.start", EV.JOB_SUBMIT, EV.JOB_DONE)
    MIN_PARTITIONS = 4
    MIN_BYTES = 1 << 20

    def __init__(self, obs: "Observatory"):
        super().__init__(obs)
        self._bytes: dict[tuple[str, str], float] = {}  # (job, "r5") → bytes

    def on_event(self, event) -> None:
        if event.kind in (EV.JOB_SUBMIT, EV.JOB_DONE):
            # A resubmitted job reuses its partition tokens, and a
            # finished job's shuffle shape is history — either way drop
            # only *its* buckets.  Clearing everything punished
            # concurrent tenants: jobs with different reduce counts
            # pooled their bytes and a healthy mix looked hot.
            job = event.source
            for key in [k for k in self._bytes if k[0] == job]:
                del self._bytes[key]
            return
        token = event.source.rsplit(":", 1)[-1]
        key = (str(event.attrs.get("job", "")), token)
        self._bytes[key] = (self._bytes.get(key, 0.0)
                            + float(event.attrs.get("nbytes", 0.0)))

    def tick(self, now: float) -> None:
        spec = self.book.spec("reducer-skew")
        jobs: dict[str, list[tuple[str, str]]] = {}
        for key in self._bytes:
            jobs.setdefault(key[0], []).append(key)
        for job, keys in sorted(jobs.items()):
            # Skew is a per-job property: each job's partitions are
            # compared only against that job's own median.
            if len(keys) < self.MIN_PARTITIONS:
                continue
            med = _median([self._bytes[k] for k in keys])
            if med < self.MIN_BYTES:
                continue
            worst = max(sorted(keys), key=lambda k: self._bytes[k])
            ratio = self._bytes[worst] / med
            target = f"{job}:{worst[1]}" if job else worst[1]
            if spec.violated_by(ratio):
                self.book.fire(
                    "reducer-skew", target, ratio, "data",
                    detail=f"partition holds {ratio:.1f}x the median "
                           f"shuffle bytes")
            else:
                self.book.resolve("reducer-skew", target)


class HostLoadDetector(Detector):
    """Hosts whose CPU runs hot *and* well above the cluster norm.

    Busy fraction is the derivative of the fair-share busy-time integral
    between ticks.  Both an absolute threshold (the SLO) and a relative
    margin over the cluster median are required, so a uniformly saturated
    map phase — every host at 100% — is load, not an anomaly.
    """

    MARGIN = 0.35

    def __init__(self, obs: "Observatory"):
        super().__init__(obs)
        # Counter samples live in a time-series store rather than an
        # ad-hoc (t, busy) dict: the newest bucket's last/last_at *is*
        # the previous tick's sample, so the difference quotient below
        # is bit-identical to the old per-detector state while the
        # series stay queryable and digestable like any other metric.
        self._store = TimeSeriesStore(obs.sim, step=obs.interval)

    def _busy_rates(self, now: float) -> dict[str, float]:
        rates: dict[str, float] = {}
        for res in self.obs.resources:
            if not res.name.endswith(".cpu"):
                continue
            busy = res.busy_time(now)
            series = self._store.series("observatory.host.busy_s",
                                        labels={"res": res.name})
            prev = series.latest(1)
            series.observe(now, busy)
            if not prev or now - prev[0].last_at <= _EPS:
                continue
            rates[res.name] = ((busy - prev[0].last)
                               / (now - prev[0].last_at))
        return rates

    def tick(self, now: float) -> None:
        spec = self.book.spec("hot-host")
        rates = self._busy_rates(now)
        if len(rates) < 2:
            return
        med = _median(list(rates.values()))
        for name in sorted(rates):
            host = name[:-len(".cpu")]
            rate = rates[name]
            if spec.violated_by(rate) and rate >= med + self.MARGIN:
                self.book.fire(
                    "hot-host", host, rate, "cpu",
                    detail=f"cpu busy {rate:.0%} vs cluster median "
                           f"{med:.0%}")
            else:
                self.book.resolve("hot-host", host)


class LinkHealthDetector(Detector):
    """Saturated links moving traffic far below their rated speed.

    Over each tick window two interface counters are differenced: the
    busy-time integral (fraction of the window the link had demand) and
    the byte counter (:meth:`moved_through`, the ifstat view).  A healthy
    link that is busy for ``b`` of the window carries ``≈ b × nominal``
    bytes — busy fraction and throughput fraction coincide.  Only a link
    whose effective capacity dropped can be pegged *and* move a small
    fraction of nominal, so one full window of evidence suffices and a
    saturated-but-healthy link can never false-positive.  Nominal speeds
    are snapshotted when the observatory starts (the rated link speed an
    operator knows), never re-read.
    """

    SATURATED = 0.9

    def __init__(self, obs: "Observatory"):
        super().__init__(obs)
        self._nominal: dict[str, float] = {}
        # Both interface counters stream into per-resource series (see
        # HostLoadDetector for why this is a bit-identical drop-in for
        # the old (t, busy, moved) tuples).
        self._store = TimeSeriesStore(obs.sim, step=obs.interval)
        self._watched = [res for res in obs.resources
                         if res.name.endswith((".nic", ".bridge"))]
        for res in self._watched:
            self._nominal[res.name] = res.capacity

    def tick(self, now: float) -> None:
        degraded = self.book.spec("degraded-link")
        partitioned = self.book.spec("partitioned-link")
        for res in self._watched:
            busy = res.busy_time(now)
            moved = res.moved_through(now)
            labels = {"res": res.name}
            busy_series = self._store.series("observatory.link.busy_s",
                                             labels=labels)
            moved_series = self._store.series("observatory.link.moved_b",
                                              labels=labels)
            prev_busy = busy_series.latest(1)
            prev_moved = moved_series.latest(1)
            busy_series.observe(now, busy)
            moved_series.observe(now, moved)
            if not prev_busy or now - prev_busy[0].last_at <= _EPS:
                continue
            dt = now - prev_busy[0].last_at
            busy_rate = (busy - prev_busy[0].last) / dt
            fraction = ((moved - prev_moved[0].last) / dt
                        / self._nominal[res.name])
            pegged = busy_rate >= self.SATURATED
            if pegged and partitioned.violated_by(fraction):
                self.book.resolve("degraded-link", res.name)
                self.book.fire(
                    "partitioned-link", res.name, fraction, "network",
                    detail=f"pegged {busy_rate:.0%} of the window, "
                           f"moving {fraction:.1%} of nominal")
            elif pegged and degraded.violated_by(fraction):
                self.book.resolve("partitioned-link", res.name)
                self.book.fire(
                    "degraded-link", res.name, fraction, "network",
                    detail=f"pegged {busy_rate:.0%} of the window, "
                           f"moving {fraction:.1%} of nominal")
            else:
                self.book.resolve("degraded-link", res.name)
                self.book.resolve("partitioned-link", res.name)


class DiskHealthDetector(Detector):
    """VMs whose live disk flows run far below their max-min fair share.

    Max-min fair sharing guarantees every *uncapped* flow at least its
    equal share at its tightest path resource —
    ``min over path of capacity / n_flows_through``.  A live guest-disk
    flow running ≥ ``threshold``× below that floor is therefore provably
    throttled by something off the fair-share books: a per-flow cap, i.e.
    a gray-failing virtual disk.  Ordinary congestion can never trip
    this test (a congested flow still gets its equal share), and a
    degraded *link* shrinks ``capacity`` — and hence the floor — so link
    faults self-suppress rather than masquerade as disk faults.

    Belt and braces, a link alert on the VM's host also suppresses the
    disk alert while active and for one window after it resolves —
    blame the cause, not the echo.
    """

    SUSTAIN = 2
    #: In-flight flows younger than this are ignored: a flow mid-open
    #: may not have been assigned its steady rate yet.
    MIN_LIVE_S = 1.0

    def __init__(self, obs: "Observatory"):
        super().__init__(obs)
        self._strikes: dict[str, int] = {}
        self._vm_names = {vm.name for vm in obs.telemetry.vms}
        self._host_of = {vm.name: vm.host.name
                         for vm in obs.telemetry.vms
                         if vm.host is not None}

    def _link_suspect(self, vm: str, now: float) -> bool:
        """True when a link alert on the VM's host explains slow flows
        still inside the evidence window."""
        host = self._host_of.get(vm)
        if host is None:
            return False
        prefix = host + "."
        for slo in ("degraded-link", "partitioned-link"):
            for alert in self.book.history(slo):
                if not alert.target.startswith(prefix):
                    continue
                if (alert.resolved_at is None
                        or now - alert.resolved_at <= self.obs.window_s):
                    return True
        return False

    def _shortfalls(self, now: float) -> dict[str, float]:
        """vm → worst fair-share shortfall ratio over its live disk flows."""
        fss = self.obs.telemetry.datacenter.fss
        worst: dict[str, float] = {}
        for flow in fss.active_flows:  # settles: flow.rate is post-fill
            vm = flow.name.split(":", 1)[0]
            if vm not in self._vm_names:
                continue
            if classify(flow.name,
                        tuple(r.name for r in flow.path)) != "disk":
                continue
            if now - flow.start_time < self.MIN_LIVE_S:
                continue
            floor = min(
                r.capacity / max(1, len(fss.flows_through(r)))
                for r in dict.fromkeys(flow.path))
            ratio = floor / max(flow.rate, _EPS)
            if ratio > worst.get(vm, 0.0):
                worst[vm] = ratio
        return worst

    def tick(self, now: float) -> None:
        spec = self.book.spec("slow-disk")
        worst = self._shortfalls(now)
        for vm in sorted(self._vm_names):
            ratio = worst.get(vm, 1.0)
            if spec.violated_by(ratio) and self._link_suspect(vm, now):
                self._strikes[vm] = 0
                continue
            if spec.violated_by(ratio):
                self._strikes[vm] = self._strikes.get(vm, 0) + 1
                if self._strikes[vm] >= self.SUSTAIN:
                    self.book.fire(
                        "slow-disk", vm, ratio, "disk",
                        detail=f"disk flows at {ratio:.1f}x below the "
                               f"max-min fair share floor")
            else:
                self._strikes[vm] = 0
                self.book.resolve("slow-disk", vm)


class NodeLivenessDetector(Detector):
    """Crashed workers, and whole hosts losing all their residents.

    ``vm.failed`` / ``vm.recovered`` trace events carry node liveness;
    the host→residents map (snapshotted every tick, so a crashed host's
    final population is known) upgrades a simultaneous wipeout of one
    host's VMs to ``host-down``.
    """

    #: Failures of one host's VMs within this many seconds count as one
    #: correlated event.
    CORRELATION_S = 10.0

    prefixes = (EV.VM_FAILED, EV.VM_RECOVERED)

    def __init__(self, obs: "Observatory"):
        super().__init__(obs)
        self._host_of: dict[str, str] = {}
        self._residents: dict[str, set[str]] = {}
        self._failures: dict[str, dict[str, float]] = {}  # host → vm → t
        self._snapshot()

    def _snapshot(self) -> None:
        datacenter = self.obs.telemetry.datacenter
        if datacenter is None:
            return
        for machine in datacenter.machines:
            names = set(machine.vms)
            if names:
                self._residents[machine.name] = names
            for vm in names:
                self._host_of[vm] = machine.name

    def on_event(self, event) -> None:
        vm = event.source
        if event.kind == EV.VM_RECOVERED:
            self.book.resolve("node-down", vm)
            host = self._host_of.get(vm)
            if host is not None:
                self._failures.get(host, {}).pop(vm, None)
                self.book.resolve("host-down", host)
            return
        self.book.fire("node-down", vm, 0.0, "node",
                       detail="worker VM stopped responding")
        host = self._host_of.get(vm)
        if host is None:
            return
        fails = self._failures.setdefault(host, {})
        fails[vm] = event.time
        recent = {v for v, t in fails.items()
                  if event.time - t <= self.CORRELATION_S}
        residents = self._residents.get(host, set())
        if residents and recent >= residents:
            self.book.fire(
                "host-down", host, 0.0, "node",
                detail=f"all {len(residents)} resident VMs failed "
                       f"together")

    def tick(self, now: float) -> None:
        self._snapshot()


class ReplicationDetector(Detector):
    """Blocks below their replication target (namenode scan per tick)."""

    def __init__(self, obs: "Observatory"):
        super().__init__(obs)
        cluster = obs.cluster
        self._namenode = getattr(cluster, "namenode", None)
        self._target = (cluster.config.dfs_replication
                        if cluster is not None else 0)

    def tick(self, now: float) -> None:
        if self._namenode is None:
            return
        from repro.hdfs.replication import under_replicated
        short = under_replicated(self._namenode, self._target)
        if short:
            self.book.fire(
                "under-replicated", "hdfs", float(len(short)), "data",
                detail=f"{len(short)} blocks below replication "
                       f"{self._target}")
        else:
            self.book.resolve("under-replicated", "hdfs")


#: Default detector suite, construction order = evaluation order.
DEFAULT_DETECTORS = (
    StragglerDetector, SkewDetector, HostLoadDetector, LinkHealthDetector,
    DiskHealthDetector, NodeLivenessDetector, ReplicationDetector,
)
