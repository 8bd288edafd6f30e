"""The six benchmark workloads, driven through public ``repro`` calls only.

Each workload splits into ``setup`` (imports aside: dataset generation,
provisioning, upload, calibration, scenario generation) and ``run`` (the
timed region).  ``run`` returns an :class:`Outcome` holding the
workload's input-defined work unit, its headline *simulated* seconds, a
digest of every simulated result, the correctness checks and whatever
per-layer counts only the driver can see.  Sizes live in :data:`SIZES`;
later issues cite the ``full`` column by workload name.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import os
from dataclasses import dataclass, field
from typing import Any

from repro import constants as C
from repro.virt.datacenter import Datacenter

# Every other ``repro`` import is local to the workload that needs it, so
# that ``setup_s`` charges a workload only for the subsystems it loads.

#: Set (to "1") in the environment of a traced rep so that fabric worker
#: processes, which start from a fresh import, install tracing too.
TRACE_ENV = "BENCH_E2E_TRACE"

#: Workload sizes.  ``smoke`` exists only for the harness self-tests
#: (<= 25 s for all six); results made with it are stamped and refused
#: by ``compare``.
SIZES = {
    "full": {
        "ladder500": dict(topology="25x5x4", wc_mb=1920, wc_reduces=32,
                          tera_mb=512, tera_reduces=32),
        "migration_table2": dict(conditions=(("idle", 1024), ("idle", 512),
                                             ("wordcount", 1024),
                                             ("wordcount", 512))),
        "ml_clustering": dict(scales=(2, 4, 8, 16), n_per_class=300),
        "service_burst": dict(n_tenants=160, rate=8.0, factor=4.0,
                              every=5000.0, duration=800.0, horizon=25000.0,
                              tick_s=10.0, quick_calibration=False),
        "fuzz_serial": dict(n_scenarios=48),
        "fuzz_sharded": dict(n_scenarios=48),
    },
    "smoke": {
        "ladder500": dict(topology="1x2x8", wc_mb=128, wc_reduces=4,
                          tera_mb=32, tera_reduces=4),
        "migration_table2": dict(conditions=(("idle", 1024), ("idle", 512))),
        "ml_clustering": dict(scales=(2,), n_per_class=20),
        "service_burst": dict(n_tenants=16, rate=0.8, factor=4.0,
                              every=600.0, duration=150.0, horizon=1200.0,
                              tick_s=5.0, quick_calibration=True),
        "fuzz_serial": dict(n_scenarios=3),
        "fuzz_sharded": dict(n_scenarios=3),
    },
}

#: Materialize 1/400 of the wordcount corpus; simulate the full volume.
WC_VOLUME_SCALE = 400


@dataclass
class Outcome:
    """What one timed region produced."""

    work_units: float
    sim_headline_s: float
    digest: str
    #: ``(check name, passed)`` — every entry counts as one attempt.
    checks: list = field(default_factory=list)
    #: Per-layer counts only the driver can see (reports, outcomes).
    counts: dict = field(default_factory=dict)
    #: Fleet peak RSS when the workload ran worker processes.
    fleet_peak_rss_mb: float = 0.0
    #: Aggregated spans returned by traced worker processes.
    worker_spans: dict = field(default_factory=dict)


def _digest(*parts: Any) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()[:16]


# -- census: layer counters read from public attributes -----------------------

class Census:
    """Collects every :class:`Datacenter` built while active.

    The experiment helpers (``migrate_cluster_under``, ``run_scenario``)
    build their platform internally and return only a report; noting the
    datacenters as they are constructed is how the benchmark reads the
    kernel / fair-share / route-cache / registry counters afterwards —
    from public attributes, with nothing added to the timed path.
    """

    def __init__(self) -> None:
        self.datacenters: list[Datacenter] = []
        self._saved = None

    def __enter__(self) -> "Census":
        saved = self._saved = Datacenter.__init__
        seen = self.datacenters

        def noting_init(dc, *args, **kwargs):
            saved(dc, *args, **kwargs)
            seen.append(dc)

        Datacenter.__init__ = noting_init
        return self

    def __exit__(self, *exc) -> None:
        Datacenter.__init__ = self._saved

    def counts(self) -> dict:
        return datacenter_counts(self.datacenters)


def _registry_sum(dcs, name: str) -> float:
    return sum(dc.metrics.sum(name) for dc in dcs)


def _registry_observations(dcs, name: str) -> int:
    total = 0
    for dc in dcs:
        family = dc.metrics.families.get(name)
        if family is not None:
            total += sum(child.count for _labels, child in family.items())
    return total


def sim_counts(sims) -> dict:
    sims = list(sims)
    return {
        "sim.kernel.events": sum(s.events_processed for s in sims),
        "sim.kernel.max_heap": max((s.max_heap_size for s in sims),
                                   default=0),
        "sim.kernel.cancelled_pruned": sum(s.cancelled_pruned for s in sims),
    }


def datacenter_counts(dcs) -> dict:
    """Exact, repeatable layer counters of a set of finished datacenters."""
    dcs = list(dcs)
    out = sim_counts(dc.sim for dc in dcs)
    fss = [dc.fss for dc in dcs]
    out.update({
        "sim.fairshare.rebalances": sum(f.rebalance_count for f in fss),
        "sim.fairshare.flow_visits": sum(f.flow_visits for f in fss),
        "sim.fairshare.max_component_flows": max(
            (f.max_component_flows for f in fss), default=0),
        "sim.fairshare.completed_flows": sum(f.completed_count for f in fss),
        "sim.fairshare.timer_cancellations": sum(
            f.timer_cancellations for f in fss),
    })
    stats = [dc.fabric.path_cache_stats() for dc in dcs]
    out["net.path_cache_hits"] = sum(s["hits"] for s in stats)
    out["net.path_cache_misses"] = sum(s["misses"] for s in stats)
    out.update({
        "hdfs.bytes_written": _registry_sum(dcs, "hdfs.bytes.written"),
        "hdfs.files_written": _registry_sum(dcs, "hdfs.files.written"),
        "mapreduce.jobs": _registry_sum(dcs, "mapreduce.jobs.completed"),
        "mapreduce.tasks": _registry_observations(
            dcs, "mapreduce.task.duration"),
        "mapreduce.task_retries": _registry_sum(dcs, "recovery.task.retries"),
        "mapreduce.shuffle_bytes": _registry_sum(
            dcs, "mapreduce.shuffle.bytes"),
        "scheduler.speculative_attempts": _registry_sum(
            dcs, "mapreduce.tasks.speculated"),
        "scheduler.preemptions": _registry_sum(dcs, "scheduler.preemptions"),
        "virt.migrations": _registry_sum(dcs, "migration.count"),
        "platform.vms_provisioned": sum(len(dc.vms) for dc in dcs),
        "telemetry.series": sum(len(dc.telemetry.timeseries) for dc in dcs),
        "telemetry.samples": sum(dc.telemetry.timeseries.samples_taken
                                 for dc in dcs),
    })
    return out


def _map_output_records(reports) -> int:
    return sum(r.counters.get("job", "map_output_records") for r in reports)


# -- workloads ---------------------------------------------------------------

class Workload:
    name = ""
    why = ""
    work_unit = ""
    #: Expected timed-region seconds at full size on the 2-core reference
    #: box; the per-rep wall timeout is ten times this.
    expected_s = 10.0
    #: False when the workload counts its datacenters itself (the fuzz
    #: items run in worker processes the parent census cannot see).
    parent_census = True

    def setup(self, seed: int, size: dict) -> Any:
        raise NotImplementedError

    def run(self, state: Any) -> Outcome:
        raise NotImplementedError


class Ladder500(Workload):
    name = "ladder500"
    why = ("500-VM rack ladder rung (25x5x4): wordcount 1,920 MB + terasort "
           "512 MB; sim.fairshare does ~2/3 of the work, functional MR and "
           "ml almost none")
    work_unit = "simulated MB"
    expected_s = 11.0

    def setup(self, seed, size):
        from repro.config import TopologySpec
        from repro.datasets.text import generate_corpus
        from repro.experiments.common import make_platform
        from repro.platform import ClusterSpec
        from repro.workloads.wordcount import (lines_as_records,
                                               scaled_line_sizeof)
        topo = TopologySpec.parse(size["topology"])
        platform = make_platform(seed=seed, topology=topo)
        cluster = platform.provision_cluster("ladder",
                                             ClusterSpec.racked(topo))
        lines = generate_corpus(
            size["wc_mb"] * C.MB // WC_VOLUME_SCALE,
            rng=platform.datacenter.rng.fresh("datasets/corpus"))
        platform.upload(cluster, "/in", lines_as_records(lines),
                        sizeof=scaled_line_sizeof(WC_VOLUME_SCALE),
                        timed=False)
        words = sum(len(line.split()) for line in lines)
        return platform, cluster, words, size

    def run(self, state):
        from repro.workloads.terasort import run_terasort
        from repro.workloads.wordcount import wordcount_job
        platform, cluster, words, size = state
        wc = platform.run_job(cluster, wordcount_job(
            "/in", "/out", n_reduces=size["wc_reduces"],
            volume_scale=WC_VOLUME_SCALE))
        tera = run_terasort(platform.runner(cluster), cluster,
                            size["tera_mb"] * C.MB,
                            n_reduces=size["tera_reduces"],
                            seed_tag="ladder")
        counted = sum(n for _word, n in platform.collect(cluster, wc))
        sim_parts = (wc.elapsed, tera.generation_time_s, tera.sort_time_s)
        return Outcome(
            work_units=size["wc_mb"] + size["tera_mb"],
            sim_headline_s=sum(sim_parts),
            digest=_digest(sim_parts, counted,
                           sorted(wc.counters.group("job").items()),
                           sorted(tera.sort_report.counters
                                  .group("job").items())),
            checks=[("teravalidate", bool(tera.validated)),
                    ("wordcount total = corpus words", counted == words)],
            counts={"mapreduce.map_output_records": _map_output_records(
                [wc, tera.gen_report, tera.sort_report])})


class MigrationTable2(Workload):
    name = "migration_table2"
    why = ("paper Table II: {idle, wordcount-loaded} x {512, 1024 MB} "
           "whole-cluster live migration; only user of virt.migration, wall "
           "dominated by functional mapreduce, fair-share a minority")
    work_unit = "VM migrations"
    expected_s = 18.0

    #: The platform seed is pinned: migration under load is a closed loop
    #: (load slows migration, a longer migration runs more load jobs), so
    #: re-seeding swings the work itself — 13.7-18.8 s wall and 954-1,108
    #: simulated s over seeds 0-20 — and would drown every other signal.
    #: ``--seed`` still varies PYTHONHASHSEED; the idle conditions do not
    #: depend on the seed at all.
    PLATFORM_SEED = 0

    def setup(self, seed, size):
        from repro.experiments import fig5_migration
        return fig5_migration.migrate_cluster_under, self.PLATFORM_SEED, size

    def run(self, state):
        migrate_cluster_under, seed, size = state
        reports = {}
        for condition, memory_mb in size["conditions"]:
            reports[(condition, memory_mb)] = migrate_cluster_under(
                condition, memory_mb * C.MiB, seed=seed)
        records = [r for rep in reports.values() for r in rep.records]
        checks = [("all migrations complete",
                   all(len(rep.records) == 15 + 1 for rep in reports.values())
                   and all(math.isfinite(r.migration_time_s)
                           and r.migration_time_s > 0 for r in records))]

        def longer(a, b):
            return (reports[a].overall_migration_time_s
                    > reports[b].overall_migration_time_s)

        for condition in sorted({c for c, _m in reports}):
            if (condition, 1024) in reports and (condition, 512) in reports:
                checks.append((f"{condition}: 1024 MB migrates longer than "
                               f"512 MB",
                               longer((condition, 1024), (condition, 512))))
        for memory_mb in sorted({m for _c, m in reports}):
            idle, busy = ("idle", memory_mb), ("wordcount", memory_mb)
            if idle in reports and busy in reports:
                checks.append((f"{memory_mb} MB: loaded migrates longer "
                               f"than idle", longer(busy, idle)))
                checks.append((f"{memory_mb} MB: loaded downtime exceeds "
                               f"idle",
                               reports[busy].overall_downtime_s
                               > reports[idle].overall_downtime_s))
        return Outcome(
            work_units=len(records),
            sim_headline_s=sum(rep.overall_migration_time_s
                               for rep in reports.values()),
            digest=_digest([(key, rep.migration_times, rep.downtimes)
                            for key, rep in sorted(reports.items())]),
            checks=checks,
            counts={"virt.precopy_rounds": sum(r.n_rounds for r in records)})


class MlClustering(Workload):
    name = "ml_clustering"
    why = ("paper Figs. 6-7: six Mahout-style clustering algorithms on 2/4/8/"
           "16-node clusters; ml.vectors/NumPy dominate, many tiny MR jobs "
           "stress per-job overhead, fair-share idle")
    work_unit = "clustering runs"
    expected_s = 12.0

    def setup(self, seed, size):
        from repro.datasets.sample_data import generate_sample_data
        from repro.datasets.synthetic_control import \
            generate_synthetic_control
        from repro.experiments import fig6_synthetic_control as fig6
        from repro.experiments import fig7_display_clustering as fig7
        from repro.experiments.common import make_platform, scaled_cluster
        from repro.config import HadoopConfig
        from repro.ml import (CanopyDriver, ClusterExecutor, DirichletDriver,
                              MeanShiftDriver)
        from repro.ml.base import stage_points
        plans = []
        for n_nodes in size["scales"]:
            platform = make_platform(seed=seed)
            points, _labels = generate_synthetic_control(
                n_per_class=size["n_per_class"],
                rng=platform.datacenter.rng.fresh("datasets/control"))
            cluster = scaled_cluster(platform, n_nodes)
            stage_points(platform, cluster, "/control/input", points)
            drivers = {
                "canopy": CanopyDriver(t1=fig6.CANOPY_T1, t2=fig6.CANOPY_T2),
                "dirichlet": DirichletDriver(n_models=10, max_iterations=5),
                "meanshift": MeanShiftDriver(t1=fig6.MEANSHIFT_T1,
                                             t2=fig6.MEANSHIFT_T2,
                                             max_iterations=5),
            }
            plans.append(("fig6", n_nodes, "/control/input", drivers,
                          ClusterExecutor(platform.runner(cluster), cluster)))
        light = HadoopConfig(job_localization_bytes=4 * 1024 * 1024)
        for n_nodes in size["scales"]:
            platform = make_platform(seed=seed)
            points, _labels = generate_sample_data(
                platform.datacenter.rng.fresh("datasets/sample"))
            cluster = scaled_cluster(platform, n_nodes, hadoop_config=light)
            stage_points(platform, cluster, "/samples/input", points)
            plans.append(("fig7", n_nodes, "/samples/input",
                          fig7.make_drivers(),
                          ClusterExecutor(platform.runner(cluster), cluster)))
        return plans

    def run(self, plans):
        results, checks, reports = [], [], []
        for figure, n_nodes, path, drivers, executor in plans:
            for name, driver in drivers.items():
                outcome = driver.run(executor, path, work_prefix=f"/{name}")
                results.append((figure, n_nodes, name, outcome.runtime_s,
                                outcome.k, outcome.iterations))
                checks.append((f"{figure}/{n_nodes}/{name}: >=1 cluster, "
                               f"finite runtime",
                               outcome.k >= 1
                               and math.isfinite(outcome.runtime_s)
                               and outcome.runtime_s > 0))
            reports.extend(executor.reports)
        return Outcome(
            work_units=len(results),
            sim_headline_s=sum(r[3] for r in results),
            digest=_digest(results),
            checks=checks,
            counts={"ml.runs": len(results),
                    "ml.iterations": sum(r[5] for r in results),
                    "mapreduce.map_output_records":
                        _map_output_records(reports)})


def _size_quantile(q: float) -> float:
    """Quantile of the service job-size mix (log-uniform per class)."""
    from repro.cloud.traffic import JOB_CLASSES
    acc = 0.0
    for _name, lo_mb, hi_mb, prob in JOB_CLASSES:
        if q <= acc + prob:
            return lo_mb * (hi_mb / lo_mb) ** ((q - acc) / prob)
        acc += prob
    return JOB_CLASSES[-1][2]


class ServiceBurst(Workload):
    name = "service_burst"
    why = ("one full-scale burst-burn service universe (160 tenants, 4x "
           "flash crowds, ~277k submissions): timer/process events only, "
           "zero flows; sole load on cloud.*, telemetry.timeseries, "
           "observatory.burnrate")
    work_unit = "submissions"
    expected_s = 13.0
    parent_census = False   # the universe runs on a bare Simulator

    #: The full ``experiments.service`` constants this universe mirrors.
    MARGIN = 1.25
    QUOTA_HEADROOM = 8.0

    def setup(self, seed, size):
        from repro.cloud import (AdmissionController, BurstTraffic,
                                 ElasticAutoscaler, ServiceController,
                                 SlotModelBackend, TenantRegistry)
        from repro.cloud.traffic import mean_job_size_mb
        from repro.experiments.service import calibrate_cost_model
        from repro.observatory.burnrate import BurnRateEngine
        from repro.observatory.slo import AlertBook
        from repro.sim.kernel import Simulator
        from repro.sim.rng import RngRegistry
        from repro.telemetry.timeseries import TimeSeriesStore
        cost = calibrate_cost_model(seed, size["quick_calibration"])
        sim = Simulator()
        rngs = RngRegistry(seed)
        rate, n_tenants = size["rate"], size["n_tenants"]
        mean_service_s = cost.service_time(mean_job_size_mb())
        slots = max(4, int(math.ceil(rate * mean_service_s * self.MARGIN)))
        expected_inflight = rate * mean_service_s
        total_weight = sum(1.0 / (1 + i) ** 0.8 for i in range(n_tenants))
        latency_target_s = 2.5 * cost.service_time(_size_quantile(0.99))
        tenants = TenantRegistry.synthetic(
            n_tenants, rngs.stream("service:fleet"),
            latency_slo_s=latency_target_s,
            quota_scale=self.QUOTA_HEADROOM * expected_inflight
            / total_weight)
        traffic = BurstTraffic(
            "burst", tenants, rngs.stream("service:traffic"),
            base_rate_per_s=rate, burst_factor=size["factor"],
            burst_every_s=size["every"], burst_duration_s=size["duration"])
        backend = SlotModelBackend(sim, cost, slots=slots,
                                   elastic_max=slots * 4, boot_s=45.0)
        book = AlertBook(sim=sim)
        autoscaler = ElasticAutoscaler(
            backend.pool, book, service="burst-burn", cooldown_s=30.0,
            grow_step=max(2, slots // 8), scale_in_util=0.3,
            scale_in_ticks=24)
        store = TimeSeriesStore(sim, step=size["tick_s"])
        controller = ServiceController(
            sim, backend, tenants, traffic,
            admission=AdmissionController(shed_start=12.0, shed_hard=24.0),
            book=book, autoscaler=autoscaler, name="burst-burn",
            tick_s=size["tick_s"], latency_target_s=latency_target_s,
            burn_engine=BurnRateEngine(store, book, target="burst-burn"))
        return controller, sim, store, size["horizon"]

    def run(self, state):
        controller, sim, store, horizon = state
        report = controller.run(horizon)
        c = report.counters()
        rejected = c["rejected_quota"] + c["rejected_overload"]
        inflight = controller.inflight
        counts = sim_counts([sim])
        counts.update({
            "cloud.submitted": c["submitted"],
            "cloud.admitted": c["admitted"],
            "cloud.rejected": rejected,
            "cloud.scaling_actions": c["scaling_actions"],
            "cloud.alerts": c["alerts"],
            "observatory.alerts": c["alerts"],
            "observatory.burn_evaluations":
                controller.burn_engine.evaluations,
            "telemetry.series": len(store),
            # Every sample recorded is still in the coarsest tier (100
            # steps per bucket, 360 buckets outlast the horizon).
            "telemetry.samples": sum(
                bucket.count for _key, series in store.items()
                for _start, bucket in series.range(0.0, math.inf, tier=2)),
        })
        return Outcome(
            work_units=c["submitted"],
            # Mean, not p99: the histogram is log-binned, so its p99 is
            # a bin edge that reads the same for most seeds and then
            # jumps 18%; the mean moves continuously.
            sim_headline_s=report.latency.mean,
            digest=_digest(report.digest(), report.latency.mean,
                           report.latency.p99),
            checks=[("submitted = admitted + rejected",
                     c["submitted"] == c["admitted"] + rejected),
                    ("admitted = completed + failed + inflight",
                     c["admitted"] == c["completed"] + c["failed"]
                     + inflight),
                    ("failed = 0", c["failed"] == 0)],
            counts=counts)


# -- fuzz (serial and sharded) ---------------------------------------------

#: The fixed window of scenario *shapes* (topology, job mix, faults,
#: knobs).  ``--seed`` re-seeds each shape's data and platform RNG, so
#: the campaign's work volume is the same on every seed while its inputs
#: are not; seed 0 is exactly ``vhadoop fuzz --seed-range 0:48``.
FUZZ_SHAPE_BASE = 0


def fuzz_items(seed: int, n_scenarios: int) -> list:
    return [[FUZZ_SHAPE_BASE + k, FUZZ_SHAPE_BASE + k + 1000 * seed]
            for k in range(n_scenarios)]


def fuzz_item_key(item) -> str:
    return f"{item[0]:04d}"


def fuzz_worker(item) -> dict:
    """Fabric worker: one scenario end to end, summarized as plain JSON.

    Module-level because it crosses a process boundary by reference.
    """
    import tracing
    shape_seed, data_seed = item
    tracer = tracing.installed()
    if tracer is None and os.environ.get(TRACE_ENV) == "1":
        # First item in a spawned fabric worker of a traced rep.
        tracer = tracing.install(worker_owned=True)
    own_tracer = tracer is not None and tracer.worker_owned
    mark = tracer.mark() if own_tracer else None
    from repro.fuzz import generate_scenario, run_scenario  # maybe traced
    with Census() as census:
        scenario = dataclasses.replace(generate_scenario(shape_seed),
                                       seed=data_seed)
        result = run_scenario(scenario)
    ctx = result.context
    reports = [j.report for j in ctx.jobs if j.report is not None]
    counts = census.counts()
    counts.update({
        "mapreduce.map_output_records": _map_output_records(reports),
        "scheduler.jobs_submitted": len(ctx.jobs),
        "scheduler.tasks_launched": sum(len(r.tasks) for r in reports),
        "chaos.faults_injected": len(scenario.faults),
        "observatory.alerts": ctx.alert_count,
        "fuzz.violations": len(result.violations),
    })
    return {
        "run_digest": result.run_digest,
        "ok": result.ok,
        "invariants": sorted({v.invariant for v in result.violations}),
        "sim_elapsed_s": sum(r.elapsed for r in reports),
        "counts": counts,
        "spans": tracer.aggregate(since=mark) if own_tracer else None,
    }


MAX_COUNTS = ("sim.kernel.max_heap", "sim.fairshare.max_component_flows")


def merge_counts(into: dict, counts: dict) -> None:
    for name, value in counts.items():
        if name in MAX_COUNTS:
            into[name] = max(into.get(name, 0), value)
        else:
            into[name] = into.get(name, 0) + value


class FuzzSerial(Workload):
    name = "fuzz_serial"
    why = ("48 fuzz scenarios in one process: many short sims where corpus "
           "generation, provisioning and the LocalJobRunner oracle outweigh "
           "simulation; chaos, scheduler policies, observatory all on")
    work_unit = "scenarios"
    expected_s = 12.0
    parent_census = False
    jobs = 1

    def setup(self, seed, size):
        from repro.fuzz import generate_scenario
        items = fuzz_items(seed, size["n_scenarios"])
        for shape_seed, _data_seed in items:     # the generator's share
            generate_scenario(shape_seed).validate()
        return items

    def run(self, items):
        import tracing
        from repro.parallel import run_sharded
        sharded = run_sharded(items, fuzz_worker, jobs=self.jobs,
                              key=fuzz_item_key)
        campaign = hashlib.sha256()
        counts: dict = {}
        spans: dict = {}
        sim_elapsed = 0.0
        clean = 0
        for item, result in zip(items, sharded.results):
            key = fuzz_item_key(item)
            if not result.ok:
                campaign.update(f"{key}:fabric-error\n".encode())
                continue
            value = result.value
            campaign.update(f"{key}:{value['run_digest']}\n".encode())
            clean += bool(value["ok"])
            sim_elapsed += value["sim_elapsed_s"]
            merge_counts(counts, value["counts"])
            if value["spans"]:
                tracing.merge_aggregates(spans, value["spans"])
        stats = sharded.stats
        item_wall = sum(r.wall_s for r in sharded.results)
        counts.update({
            "fuzz.scenarios": len(items),
            "parallel.jobs": self.jobs,
            "parallel.workers_spawned": stats.workers_spawned,
            "parallel.respawns": max(
                0, stats.workers_spawned - self.jobs) if self.jobs > 1 else 0,
            "parallel.item_wall_s": item_wall,
        })
        return Outcome(
            work_units=len(items),
            sim_headline_s=sim_elapsed,
            digest=campaign.hexdigest()[:16],
            checks=[("every scenario invariant-clean", clean == len(items)),
                    ("no fabric failures", sharded.n_failed == 0)],
            counts=counts,
            fleet_peak_rss_mb=sharded.peak_rss_mb,
            worker_spans=spans)


class FuzzSharded(FuzzSerial):
    name = "fuzz_sharded"
    why = ("the same 48 scenarios over min(nproc, 4) fabric workers: only "
           "load on parallel.fabric; campaign digest must equal "
           "fuzz_serial's; cores recorded")
    expected_s = 8.0

    @property
    def jobs(self) -> int:
        return max(1, min(os.cpu_count() or 1, 4))


WORKLOADS = {w.name: w for w in (Ladder500(), MigrationTable2(),
                                 MlClustering(), ServiceBurst(),
                                 FuzzSerial(), FuzzSharded())}
