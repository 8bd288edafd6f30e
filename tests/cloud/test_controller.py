"""The always-on ServiceController: end-to-end surrogate runs, the
full-fidelity backends, and cross-process determinism."""

import collections
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud import (AdmissionController, BurstTraffic, CostModel,
                         ElasticAutoscaler, LatencyHistogram,
                         PerJobClusterBackend, PoissonTraffic,
                         ServiceController, SharedClusterBackend,
                         SlotModelBackend, TenantRegistry, trace_digest)
from repro.cloud.controller import ROLLING_TICKS, TRACE_CHUNK
from repro.config import PlatformConfig
from repro.errors import ConfigError
from repro.mapreduce import Mapper
from repro.observatory.burnrate import BurnRateEngine
from repro.observatory.slo import AlertBook
from repro.platform import ClusterSpec, VHadoopPlatform
from repro.platform.provisioning import ElasticWorkerPool
from repro.sim.kernel import Simulator
from repro.sim.rng import RngRegistry
from repro.telemetry import events as EV
from repro.telemetry.timeseries import TimeSeriesStore
from repro.virt.vm import VMState

REPO_ROOT = Path(__file__).resolve().parents[2]


def burst_universe(seed, rate=2.0):
    """The surrogate runs' tenant fleet and traffic."""
    rngs = RngRegistry(seed)
    tenants = TenantRegistry.synthetic(16, rngs.stream("fleet"),
                                       quota_scale=200.0)
    traffic = BurstTraffic("b", tenants, rngs.stream("traffic"),
                           base_rate_per_s=rate, burst_factor=5.0,
                           burst_every_s=200.0, burst_duration_s=80.0)
    return tenants, traffic


def surrogate_run(seed, autoscale=True, rate=2.0, horizon=600.0):
    sim = Simulator()
    cost = CostModel(base_s=20.0, per_mb_s=0.02)
    tenants, traffic = burst_universe(seed, rate)
    slots = 80
    backend = SlotModelBackend(sim, cost, slots=slots, elastic_max=320,
                               boot_s=30.0)
    book = AlertBook(sim=sim)
    autoscaler = None
    if autoscale:
        autoscaler = ElasticAutoscaler(backend.pool, book,
                                       cooldown_s=20.0, grow_step=16,
                                       scale_in_ticks=12)
    controller = ServiceController(
        sim, backend, tenants, traffic,
        admission=AdmissionController(shed_start=12.0, shed_hard=24.0),
        book=book, autoscaler=autoscaler, tick_s=5.0,
        latency_target_s=150.0)
    return controller.run(horizon)


def test_surrogate_run_is_deterministic_in_process():
    a = surrogate_run(7)
    b = surrogate_run(7)
    assert a.trace_digest == b.trace_digest
    assert a.counters() == b.counters()
    assert a.digest() == b.digest()
    assert surrogate_run(8).digest() != a.digest()


def test_report_trace_digest_is_the_materialized_trace_digest():
    """The controller hashes arrival lines in chunks of TRACE_CHUNK; the
    digest equals hashing a fresh identical traffic's trace line by
    line."""
    report = surrogate_run(7)
    assert report.submitted > 2 * TRACE_CHUNK
    _, traffic = burst_universe(7)
    assert report.trace_digest == trace_digest(traffic.materialize(600.0))


def test_surrogate_run_conserves_requests():
    report = surrogate_run(3)
    c = report.counters()
    assert c["submitted"] > 1000
    assert c["submitted"] == (c["admitted"] + c["rejected_quota"]
                              + c["rejected_overload"])
    assert c["completed"] + c["failed"] == c["admitted"]  # fully drained
    assert report.latency.count == c["completed"]
    # Tenant stats roll up to the service totals.
    per_tenant = sum(report.tenants.stats(n).submitted
                     for n in report.tenants.names)
    assert per_tenant == c["submitted"]


def test_autoscaler_improves_the_burst_and_acts_on_alerts():
    off = surrogate_run(7, autoscale=False)
    on = surrogate_run(7, autoscale=True)
    assert on.trace_digest == off.trace_digest  # same offered traffic
    assert on.counters()["scaling_actions"] > 0
    assert any(a.action == "grow" for a in on.actions)
    assert on.counters()["alerts"] >= 1
    # More capacity under the same load: completion latency and/or
    # rejections must improve, and never get worse.
    assert on.latency.p99 <= off.latency.p99
    assert on.goodput >= off.goodput
    peak_on = max(p.workers for p in on.timeline)
    assert peak_on > 80


@given(ticks=st.lists(
           st.lists(st.floats(0.0, 2e5, allow_nan=False), max_size=8),
           min_size=1, max_size=60))
@settings(max_examples=60, deadline=None)
def test_rolling_window_equals_merging_it_from_scratch(ticks):
    """The incremental window (merge the closing tick, subtract the
    evicted one) reads the same p99 as re-merging the last
    ``ROLLING_TICKS`` ticks, empty ticks included."""
    sim = Simulator()
    tenants = TenantRegistry.synthetic(2, RngRegistry(0).stream("fleet"))
    controller = ServiceController(
        sim, SlotModelBackend(sim, CostModel(base_s=1.0, per_mb_s=0.0),
                              slots=1),
        tenants, PoissonTraffic("p", tenants, RngRegistry(0).stream("t"),
                                1.0))
    closed = []
    for latencies in ticks:
        hist = LatencyHistogram()
        for latency in latencies:
            hist.observe(latency)
        closed.append(hist)
        merged = LatencyHistogram()
        for part in closed[-ROLLING_TICKS:]:
            merged.merge(part)
        assert controller._rolling(hist) == merged.p99


def burst_controller(**kwargs):
    """An 8-slot surrogate under a 6x flash crowd at t=100..250."""
    sim = Simulator()
    rngs = RngRegistry(5)
    tenants = TenantRegistry.synthetic(8, rngs.stream("fleet"),
                                       quota_scale=500.0)
    traffic = BurstTraffic("b", tenants, rngs.stream("traffic"),
                           base_rate_per_s=0.2, burst_factor=6.0,
                           burst_every_s=5000.0, burst_duration_s=150.0,
                           first_burst_at_s=100.0)
    backend = SlotModelBackend(sim, CostModel(base_s=20.0, per_mb_s=0.0),
                               slots=8)
    return ServiceController(sim, backend, tenants, traffic, tick_s=5.0,
                             latency_target_s=60.0, **kwargs)


def test_controller_builds_its_own_burn_engine():
    """No engine passed: the controller's own fires a capacity SLO on the
    burst and resolves it afterwards, evaluating once per tick.  The run
    outlasts the slow pair's 1800 s window, which must calm to resolve."""
    controller = burst_controller(name="own")
    engine = controller.burn_engine
    assert engine.book is controller.book and engine.target == "own"
    assert engine.store.step == controller.tick_s
    report = controller.run(3000.0)
    assert engine.evaluations == len(report.timeline)
    capacity = [a for a in report.book.alerts
                if a.slo in ("service-p99", "service-backlog")]
    assert capacity and all(a.target == "own" for a in capacity)
    assert all(a.resolved_at is not None for a in capacity)
    assert report.burn_digest == engine.digest()


def test_burn_engine_on_another_book_is_refused():
    sim = Simulator()
    stray = BurnRateEngine(TimeSeriesStore(sim), AlertBook(sim=sim),
                           target="service")
    with pytest.raises(ConfigError, match="different alert book"):
        burst_controller(burn_engine=stray)


CHILD_SCRIPT = """
import json
from tests.cloud.test_controller import surrogate_run
report = surrogate_run(11, rate=1.0, horizon=300.0)
print(json.dumps({"trace": report.trace_digest,
                  "digest": report.digest(),
                  "counters": report.counters()}, sort_keys=True))
"""


def test_two_fresh_processes_agree_byte_for_byte():
    """Satellite of the determinism contract: same seed, two *fresh*
    interpreter processes, identical trace digest and bench counters."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src"), str(REPO_ROOT)])
    env["PYTHONHASHSEED"] = "random"   # digests must not depend on it
    outputs = []
    for _ in range(2):
        proc = subprocess.run([sys.executable, "-c", CHILD_SCRIPT],
                              capture_output=True, text=True, env=env,
                              cwd=REPO_ROOT, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout.strip())
    assert outputs[0] == outputs[1]
    payload = json.loads(outputs[0])
    assert payload["counters"]["submitted"] > 100


def clamp_inputs(backend, max_mb=64.0):
    """Clamp the default requests' inputs to ``max_mb``."""
    default = backend.request_factory
    backend.request_factory = lambda arrival: default(
        dataclasses.replace(arrival, size_mb=min(arrival.size_mb, max_mb)))


def test_full_fidelity_backend_with_elastic_pool():
    """Real jobs on a warm cluster; the autoscaler boots real VMs."""
    platform = VHadoopPlatform(PlatformConfig(n_hosts=2, seed=31))
    cluster = platform.provision_cluster("svc", ClusterSpec.spread(4, hosts=2))
    backend = SharedClusterBackend(platform, cluster)
    rngs = platform.datacenter.rng
    tenants = TenantRegistry.synthetic(6, rngs.stream("fleet"),
                                       quota_scale=50.0)
    traffic = PoissonTraffic("p", tenants, rngs.stream("traffic"), 0.25)
    book = AlertBook(sim=platform.sim)
    pool = ElasticWorkerPool(cluster, backend.scheduler, max_size=4)
    autoscaler = ElasticAutoscaler(pool, book, cooldown_s=30.0,
                                   grow_step=2, scale_in_ticks=4)
    clamp_inputs(backend)
    controller = ServiceController(
        platform.sim, backend, tenants, traffic, book=book,
        autoscaler=autoscaler, tick_s=10.0, latency_target_s=60.0,
        tracer=cluster.tracer, verbose_telemetry=True)
    base_slots = backend.scheduler.total_slots("map")
    report = controller.run(horizon_s=240.0)
    c = report.counters()
    assert c["completed"] > 0
    assert c["completed"] + c["failed"] == c["admitted"]
    kinds = {e.kind for e in cluster.tracer.events}
    assert EV.CLOUD_ADMISSION in kinds
    assert EV.SERVICE_REQUEST_DONE in kinds
    # The cramped cluster overloads: the autoscaler must have added real
    # workers, which joined the scheduler's pool.
    if any(a.action == "grow" for a in report.actions):
        assert EV.CLUSTER_WORKER_JOINED in kinds
        assert backend.scheduler.total_slots("map") > base_slots


def make_backend(kind, seed=31):
    """One backend of each fidelity, on a fresh simulator."""
    if kind == "slot-model":
        sim = Simulator()
        return sim, SlotModelBackend(sim, CostModel(base_s=20.0,
                                                    per_mb_s=0.02), slots=4)
    platform = VHadoopPlatform(PlatformConfig(n_hosts=2, seed=seed))
    if kind == "shared-cluster":
        cluster = platform.provision_cluster("svc",
                                             ClusterSpec.spread(4, hosts=2))
        backend = SharedClusterBackend(platform, cluster)
    else:
        backend = PerJobClusterBackend(platform)
    clamp_inputs(backend)
    return platform.sim, backend


def small_universe(seed, rate):
    rngs = RngRegistry(seed)
    tenants = TenantRegistry.synthetic(3, rngs.stream("fleet"),
                                       quota_scale=50.0)
    return tenants, PoissonTraffic("p", tenants, rngs.stream("traffic"),
                                   rate)


class Exploding(Mapper):
    def map(self, key, value, context):
        raise RuntimeError("boom")


@pytest.mark.parametrize("kind", ["shared-cluster", "per-job-cluster"])
def test_failed_job_is_counted_not_raised(kind):
    """A job that raises fails its serve event; the controller counts it
    as failed and the run still returns."""
    sim, backend = make_backend(kind)
    datacenter = backend.platform.datacenter
    free_before = sum(m.dram_free for m in datacenter.machines)
    default = backend.request_factory

    def exploding(arrival):
        request = default(arrival)
        return dataclasses.replace(
            request, make_job=lambda inp, out: dataclasses.replace(
                request.make_job(inp, out), mapper=Exploding))

    backend.request_factory = exploding
    tenants, traffic = small_universe(7, rate=0.05)
    report = ServiceController(sim, backend, tenants, traffic,
                               tick_s=10.0).run(horizon_s=100.0)
    c = report.counters()
    assert c["failed"] > 0
    assert c["completed"] + c["failed"] == c["admitted"]
    if kind == "per-job-cluster":
        # Every per-job VM was stopped and all DRAM came back.
        assert datacenter.vms and all(vm.state is VMState.STOPPED
                                      for vm in datacenter.vms.values())
        assert sum(m.dram_free for m in datacenter.machines) == free_before


@pytest.mark.parametrize("kind", ["slot-model", "shared-cluster",
                                  "per-job-cluster"])
def test_one_front_door_contract(kind):
    """One seeded universe through each fidelity: the same offered
    traffic, every arrival accounted for, exactly one completion report
    per admitted arrival."""
    sim, backend = make_backend(kind)
    tenants, traffic = small_universe(3, rate=0.1)
    controller = ServiceController(sim, backend, tenants, traffic,
                                   tick_s=10.0)
    reported = collections.Counter()
    on_done = backend.on_done

    def counting(tenant, submitted_at, started_at, finished_at, ok):
        reported[tenant] += 1
        on_done(tenant, submitted_at, started_at, finished_at, ok)

    backend.on_done = counting
    report = controller.run(horizon_s=600.0)
    _, fresh = small_universe(3, rate=0.1)
    assert report.trace_digest == trace_digest(fresh.materialize(600.0))
    c = report.counters()
    assert c["submitted"] > 30
    assert c["submitted"] == (c["admitted"] + c["rejected_quota"]
                              + c["rejected_overload"])
    assert c["completed"] + c["failed"] == c["admitted"]
    assert reported == {name: tenants.stats(name).admitted
                        for name in tenants.names
                        if tenants.stats(name).admitted}
