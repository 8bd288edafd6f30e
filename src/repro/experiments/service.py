"""Always-on service mode at scale: ~1M submissions, hundreds of tenants.

The experiment the paper's future-work section gestures at: run vHadoop
as a *service*.  Open-loop traffic from a synthetic tenant fleet flows
through admission control into a slot-model backend whose
:class:`~repro.cloud.controller.CostModel` is first **calibrated against
real wordcount jobs** on a shared vHadoop cluster — so the million-job
surrogate inherits the full simulator's cost structure without paying
its per-task event price.

Four arrival mixes, each a fresh same-seed universe, all alerting
through the controller's
:class:`~repro.observatory.burnrate.BurnRateEngine`:

* ``steady``   — homogeneous Poisson at ~80% utilisation.  The clean
  run: the experiment *asserts* zero SLO alerts and zero scaling
  actions (a correctly provisioned service must not churn).
* ``diurnal``  — sinusoidal day/night load, autoscaler following.
* ``burst-off`` — periodic 4x flash crowds, fixed capacity.
* ``burst-on``  — the *same arrival trace* (asserted by digest) with
  the alert-driven autoscaler enabled.  The experiment asserts the
  p99 latency improves.

Prints a combined ``service digest`` note that the CI ``determinism``
job compares across two fresh processes.  Nothing is written to disk; a
caller that wants per-mix tenant stats, autoscaler action logs or
timelines reads them off each :class:`~repro.cloud.ServiceReport`.
"""

from __future__ import annotations

import math

from repro.cloud import (AdmissionController, Arrival, BurstTraffic,
                         CostModel, DiurnalTraffic, ElasticAutoscaler,
                         PoissonTraffic, ServiceController, ServiceReport,
                         SharedClusterBackend, SlotModelBackend,
                         TenantRegistry)
from repro.cloud.traffic import JOB_CLASSES, mean_job_size_mb
from repro.digest import digest
from repro.experiments.common import (ExperimentResult, make_platform,
                                      scaled_cluster)
from repro.observatory.slo import AlertBook
from repro.sim.kernel import Simulator
from repro.sim.rng import RngRegistry

#: Capacity margin over offered load for the base slot pool.
MARGIN = 1.25
#: Quota headroom: per-tenant quota ~ 8x its expected steady inflight.
#: Quotas exist to stop a *single* tenant monopolising the service; a
#: synchronized flash crowd must reach the overload/autoscaling layer
#: instead of being silently absorbed per-tenant, so the headroom sits
#: well above the burst factor.
QUOTA_HEADROOM = 8.0
#: Input sizes (MB) run as real jobs to calibrate the cost model.
CALIBRATION_SIZES = (32.0, 128.0, 512.0, 2048.0)
CALIBRATION_SIZES_QUICK = (32.0, 256.0)


def _size_quantile(q: float) -> float:
    """Quantile of the job-size mix (log-uniform within each class)."""
    acc = 0.0
    for _, lo_mb, hi_mb, prob in JOB_CLASSES:
        if q <= acc + prob:
            u = (q - acc) / prob
            return lo_mb * (hi_mb / lo_mb) ** u
        acc += prob
    return JOB_CLASSES[-1][2]


def calibrate_cost_model(seed: int, quick: bool) -> CostModel:
    """Fit the surrogate's CostModel against real wordcount runs.

    One shared 8-node cluster, one job per calibration size, each run
    solo (no queueing) so elapsed time is pure service time.  The
    surrogate then bills every simulated submission at the full
    simulator's own cost structure.
    """
    platform = make_platform(seed)
    cluster = scaled_cluster(platform, 8, name="svc-cal")
    backend = SharedClusterBackend(platform, cluster)
    sizes = CALIBRATION_SIZES_QUICK if quick else CALIBRATION_SIZES
    samples = []
    for size_mb in sizes:
        arrival = Arrival(at=platform.sim.now, tenant="default",
                          job_class="calibration", size_mb=size_mb,
                          request_id=f"cal-{int(size_mb)}")
        event = backend.serve(backend.request_factory(arrival))
        platform.sim.run_until(event)
        samples.append((size_mb, event.value.total_s))
    return CostModel.fit(samples)


def _scenario_sizes(quick: bool) -> dict:
    """Arrival-mix parameters; rates x horizons total ~1.1M (full)."""
    if quick:
        return {
            "n_tenants": 48,
            "steady": dict(rate=1.2, horizon=2500.0),
            "diurnal": dict(rate=1.2, period=1250.0, horizon=2500.0),
            "burst": dict(rate=0.8, factor=4.0, every=600.0,
                          duration=150.0, horizon=2500.0),
            "tick_s": 5.0,
        }
    return {
        "n_tenants": 160,
        "steady": dict(rate=12.0, horizon=25000.0),
        "diurnal": dict(rate=12.0, period=12500.0, horizon=25000.0),
        "burst": dict(rate=8.0, factor=4.0, every=5000.0,
                      duration=800.0, horizon=25000.0),
        "tick_s": 10.0,
    }


def _mixes(sizes: dict) -> dict:
    """``name -> (parameters, make_traffic, autoscale)`` per arrival mix,
    in run order; the two burst arms share one traffic definition."""
    st, di, bu = sizes["steady"], sizes["diurnal"], sizes["burst"]

    def burst(tenants, rng):
        return BurstTraffic(
            "burst", tenants, rng, base_rate_per_s=bu["rate"],
            burst_factor=bu["factor"], burst_every_s=bu["every"],
            burst_duration_s=bu["duration"])
    return {
        "steady": (st, lambda tenants, rng: PoissonTraffic(
            "steady", tenants, rng, rate_per_s=st["rate"]), True),
        "diurnal": (di, lambda tenants, rng: DiurnalTraffic(
            "diurnal", tenants, rng, base_rate_per_s=di["rate"],
            period_s=di["period"]), True),
        "burst-off": (bu, burst, False),
        "burst-on": (bu, burst, True),
    }


def _run_scenario(name: str, seed: int, cost: CostModel, sizes: dict,
                  rate: float, make_traffic, horizon_s: float,
                  autoscale: bool) -> ServiceController:
    """One arrival mix run to completion in a fresh simulator universe;
    returns its controller (``.report``, ``.burn_engine.store``).

    Capacity, quotas and the latency target all derive from the
    *calibrated* cost model and the offered rate, so the scenario stays
    balanced whatever the calibration produced.
    """
    sim = Simulator()
    rngs = RngRegistry(seed)
    mean_service_s = cost.service_time(mean_job_size_mb())
    slots = max(4, int(math.ceil(rate * mean_service_s * MARGIN)))
    expected_inflight = rate * mean_service_s
    n_tenants = sizes["n_tenants"]
    total_weight = sum(1.0 / (1 + i) ** 0.8 for i in range(n_tenants))
    latency_target_s = 2.5 * cost.service_time(_size_quantile(0.99))
    tenants = TenantRegistry.synthetic(
        n_tenants, rngs.stream("service:fleet"),
        latency_slo_s=latency_target_s,
        quota_scale=QUOTA_HEADROOM * expected_inflight / total_weight)
    traffic = make_traffic(tenants, rngs.stream("service:traffic"))
    backend = SlotModelBackend(sim, cost, slots=slots,
                               elastic_max=slots * 4, boot_s=45.0)
    book = AlertBook(sim=sim)
    autoscaler = None
    if autoscale:
        autoscaler = ElasticAutoscaler(
            backend.pool, book, service=name, cooldown_s=30.0,
            grow_step=max(2, slots // 8), scale_in_util=0.3,
            scale_in_ticks=24)
    controller = ServiceController(
        sim, backend, tenants, traffic,
        admission=AdmissionController(shed_start=12.0, shed_hard=24.0),
        book=book, autoscaler=autoscaler, name=name,
        tick_s=sizes["tick_s"], latency_target_s=latency_target_s)
    controller.run(horizon_s)
    return controller


def burn_timelines(seed: int = 0) -> tuple[
        dict[str, list[tuple[float, float]]], list[str]]:
    """Quick ``burst-on`` universe → sim-time SLO error timelines.

    Returns ``(series, digests)`` where ``series`` maps each
    ``slo.error.*`` series to ``[(t, mean), ...]`` points from the 10×
    downsampling tier (the tier that retains the whole quick horizon)
    and ``digests`` carries each series' content digest.  Everything is
    sim-time and deterministic, so the campaign control room can both
    chart the timelines and fold the digests into the digest CI pins.
    """
    sizes = _scenario_sizes(True)
    params, make_traffic, autoscale = _mixes(sizes)["burst-on"]
    store = _run_scenario(
        "burst-on", seed, calibrate_cost_model(seed, True), sizes,
        params["rate"], make_traffic, params["horizon"],
        autoscale).burn_engine.store
    series: dict[str, list[tuple[float, float]]] = {}
    digests: list[str] = []
    for (name, _labels), ts in store.items():
        if not name.startswith("slo.error."):
            continue
        series[name] = [(start, bucket.mean)
                        for start, bucket in ts.range(0.0, math.inf,
                                                      tier=1)]
        digests.append(ts.digest())
    return series, digests


def run(seed: int = 0, quick: bool = False) -> ExperimentResult:
    """Calibrate, run the four arrival mixes and assert their promises."""
    sizes = _scenario_sizes(quick)
    cost = calibrate_cost_model(seed, quick)

    reports: dict[str, ServiceReport] = {
        name: _run_scenario(name, seed, cost, sizes, params["rate"],
                            make_traffic, params["horizon"],
                            autoscale).report
        for name, (params, make_traffic, autoscale)
        in _mixes(sizes).items()}

    # -- the promises this mode makes, asserted ---------------------------
    steady = reports["steady"]
    if steady.counters()["alerts"]:
        raise AssertionError(
            f"clean steady run fired {steady.counters()['alerts']} "
            f"SLO alerts: {[a.slo for a in steady.book.alerts]}")
    if steady.counters()["scaling_actions"]:
        raise AssertionError("clean steady run scaled "
                             f"{steady.counters()['scaling_actions']} times")
    off, on = reports["burst-off"], reports["burst-on"]
    if on.trace_digest != off.trace_digest:
        raise AssertionError(
            f"ablation arms saw different traffic: "
            f"{on.trace_digest} != {off.trace_digest}")
    if not on.latency.p99 < off.latency.p99:
        raise AssertionError(
            f"autoscaler did not improve burst p99: "
            f"on={on.latency.p99:.1f}s vs off={off.latency.p99:.1f}s")

    result = ExperimentResult(
        experiment_id="service",
        title=f"Always-on service mode: {len(reports)} arrival mixes, "
              f"{sizes['n_tenants']} tenants",
        columns=("mix", "autoscaler", "submitted", "completed",
                 "rejected", "goodput", "p50_s", "p99_s", "workers_peak",
                 "alerts", "actions"))
    total_submitted = 0
    for name, report in reports.items():
        counters = report.counters()
        total_submitted += counters["submitted"]
        peak = max((p.workers for p in report.timeline), default=0)
        result.add(name, "off" if name == "burst-off" else "on",
                   counters["submitted"], counters["completed"],
                   report.rejected,
                   round(report.goodput, 4), round(report.latency.p50, 1),
                   round(report.latency.p99, 1), peak,
                   counters["alerts"], counters["scaling_actions"])

    combined = "|".join(f"{name}:{report.digest()}"
                        for name, report in sorted(reports.items()))

    result.note(f"cost model: base={cost.base_s:.1f}s "
                f"per_mb={cost.per_mb_s:.4f}s (calibrated on real jobs)")
    result.note(f"total submissions {total_submitted} across "
                f"{sizes['n_tenants']} tenants")
    kernel_events = sum(r.kernel_events for r in reports.values())
    result.note(f"kernel events {kernel_events} "
                f"({kernel_events / total_submitted:.2f} per submission)")
    result.note(f"burst p99 {off.latency.p99:.1f}s -> "
                f"{on.latency.p99:.1f}s with autoscaler "
                f"({len(on.actions)} actions)")
    result.note("steady mix: 0 alerts, 0 scaling actions "
                "(0 clean-run false positives)")
    result.note(f"burn store digest {on.burn_digest}")
    result.note(f"service digest {digest(combined)} "
                f"({len(reports)} mixes, deterministic)")
    return result
