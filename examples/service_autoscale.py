"""Alert-driven elastic autoscaling, full fidelity (no surrogate).

A warm 6-node shared vHadoop cluster serves open-loop wordcount traffic
from a 12-tenant fleet.  Mid-run a 6x flash crowd hits; watch the
closed loop do its job:

1. completions start missing the latency target; the service
   controller's burn-rate engine sees the error budget burning in both
   its long and short window and **fires** ``service-p99`` into the
   alert book;
2. the :class:`ElasticAutoscaler` consumes the fire through its
   one-shot alert cursor and **grows** an
   :class:`ElasticWorkerPool` — real VMs are placed on the freest
   host, booted, joined as compute-only TaskTrackers and attached to
   the scheduler's slot-worker pool — and re-grows after each cooldown
   while the alert stays active;
3. the backlog drains and rolling p99 **recovers**;
4. the alert resolves once the slow 1800 s burn window has calmed too
   (past this demo's horizon); sustained low utilisation then lets the
   pool **drain and retire** the extra workers without killing
   in-flight tasks.

Run:  python examples/service_autoscale.py
"""

import dataclasses

from repro import ClusterSpec, PlatformConfig, VHadoopPlatform
from repro.cloud import (AdmissionController, BurstTraffic,
                         ElasticAutoscaler, ServiceController,
                         SharedClusterBackend, TenantRegistry)
from repro.observatory.slo import AlertBook
from repro.platform.provisioning import ElasticWorkerPool
from repro.telemetry import events as EV

#: This tier serves *interactive* jobs: inputs above this are clamped
#: (a 6-node base cluster is no place for an 8 GB batch scan).
MAX_INPUT_MB = 128.0


def main() -> None:
    platform = VHadoopPlatform(PlatformConfig(n_hosts=2, seed=11,
                                              trace=True))
    cluster = platform.provision_cluster("svc", ClusterSpec.spread(6, hosts=2))
    backend = SharedClusterBackend(platform, cluster)
    sim = platform.sim
    rngs = platform.datacenter.rng

    tenants = TenantRegistry.synthetic(
        12, rngs.stream("svc:fleet"), latency_slo_s=180.0, quota_scale=40.0)
    # One 5x flash crowd at t=300 against a base load sized to about a
    # third of the warm cluster's measured capacity — overload is real
    # but recoverable, so the tail of the run shows p99 coming back down.
    traffic = BurstTraffic("flash", tenants, rngs.stream("svc:traffic"),
                           base_rate_per_s=0.07, burst_factor=5.0,
                           burst_every_s=1800.0, burst_duration_s=300.0,
                           first_burst_at_s=300.0)

    book = AlertBook(sim=sim, tracer=cluster.tracer)
    pool = ElasticWorkerPool(cluster, backend.scheduler, max_size=8)
    autoscaler = ElasticAutoscaler(pool, book, cooldown_s=60.0,
                                   grow_step=2, scale_in_util=0.25,
                                   scale_in_ticks=8,
                                   tracer=cluster.tracer)
    default_request = backend.request_factory
    backend.request_factory = lambda arrival: default_request(
        dataclasses.replace(arrival,
                            size_mb=min(arrival.size_mb, MAX_INPUT_MB)))
    controller = ServiceController(
        sim, backend, tenants, traffic,
        admission=AdmissionController(shed_start=8.0, shed_hard=16.0),
        book=book, autoscaler=autoscaler, name="flash-demo",
        tick_s=15.0, latency_target_s=180.0,
        tracer=cluster.tracer, verbose_telemetry=True)

    report = controller.run(horizon_s=1800.0)

    counters = report.counters()
    print(f"arrivals {counters['submitted']}  completed "
          f"{counters['completed']}  rejected "
          f"{counters['rejected_quota'] + counters['rejected_overload']}  "
          f"goodput {report.goodput:.2f}")
    print(f"latency p50 {report.latency.p50:.0f} s   "
          f"p99 {report.latency.p99:.0f} s   trace {report.trace_digest}")

    print("\nalerts fired:")
    for alert in report.book.alerts:
        state = "resolved" if alert.resolved_at is not None else "active"
        print(f"  t={alert.fired_at:7.0f}  {alert.slo:<16s} "
              f"value={alert.value:8.2f}  {state}")

    print("\nautoscaler actions:")
    for action in report.actions:
        print(f"  t={action.at:7.0f}  {action.action:<7s} x{action.amount} "
              f"on {action.trigger:<15s} -> pool size {action.size_after}")

    print("\nrolling p99 / backlog / workers (one row per minute):")
    for point in report.timeline[::4]:
        bar = "#" * min(60, point.backlog)
        print(f"  t={point.at:7.0f}  workers={point.workers:2d}  "
              f"p99={point.p99:7.1f}s  backlog={point.backlog:3d} {bar}")

    joined = sum(1 for e in cluster.tracer.events
                 if e.kind == EV.CLUSTER_WORKER_JOINED)
    retired = sum(1 for e in cluster.tracer.events
                  if e.kind == EV.CLUSTER_WORKER_RETIRED)
    print(f"\nelastic workers joined {joined}, retired {retired} "
          f"(pool ends at size {pool.size})")

    # The loop must have closed: alerts fired, capacity followed, and the
    # service finished the day healthy.
    assert any(a.action == "grow" for a in report.actions), "never scaled"
    assert joined > 0, "no elastic worker ever joined the cluster"
    assert counters["completed"] > 0.8 * counters["admitted"]
    assert report.timeline[-1].backlog == 0
    peak = max(p.p99 for p in report.timeline)
    assert report.timeline[-1].p99 < peak, "p99 never recovered"
    print("\nclosed loop verified: alert -> grow -> drain -> recover")


if __name__ == "__main__":
    main()
