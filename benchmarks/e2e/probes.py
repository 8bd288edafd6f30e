"""Per-layer micro-drivers: each calls one layer directly on synthetic input.

A probe is the layer's own figure — what the traced self times cannot
give while fair-share work triggered by completion timers still lands
in ``sim.kernel.step_self_s``.  Every probe is sized to a fraction of a
second, runs ``repeats`` times and reports the best (fastest) repeat:
probes are throughput ceilings, not end-to-end numbers, and carry no
regression bound.
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np

from repro import constants as C


def _best(fn, repeats: int) -> float:
    """Smallest wall seconds of ``fn()`` over ``repeats`` calls."""
    best = math.inf
    for _ in range(repeats):
        t0 = perf_counter()
        fn()
        best = min(best, perf_counter() - t0)
    return best


# -- sim ----------------------------------------------------------------------

def probe_kernel(repeats: int) -> dict:
    from repro.sim.kernel import Simulator
    n_procs, n_timeouts = 1000, 300

    def ticker(sim, period):
        for _ in range(n_timeouts):
            yield sim.timeout(period)

    def run():
        sim = Simulator()
        for i in range(n_procs):
            sim.process(ticker(sim, 1.0 + i * 1e-3))
        sim.run()

    return {"sim.kernel.probe_timer_events_per_s":
            n_procs * n_timeouts / _best(run, repeats)}


def _fairshare_churn(shared: bool, n_flows: int = 1000, n_pairs: int = 150):
    """Hold ``n_flows`` flows open, then open/close ``n_pairs`` more.

    ``shared``: every flow also crosses one common resource (the NFS-star
    shape of the ladder: one component, every rebalance visits it all);
    otherwise each flow has only its private NIC (fixed cost per
    rebalance, component of one).
    """
    from repro.sim.fairshare import FairShareSystem, SharedResource
    from repro.sim.kernel import Simulator
    sim = Simulator()
    fss = FairShareSystem(sim)
    hub = SharedResource("hub", capacity=1e9)
    nics = [SharedResource(f"nic{i}", capacity=1e6)
            for i in range(n_flows + 1)]

    def path(i):
        return (nics[i], hub) if shared else (nics[i],)

    for i in range(n_flows):
        fss.open(path(i), size=math.inf, name=f"held{i}")
    rebalances0, visits0 = fss.rebalance_count, fss.flow_visits
    t0 = perf_counter()
    for _ in range(n_pairs):
        fss.close(fss.open(path(n_flows), size=math.inf, name="churn"))
    wall = perf_counter() - t0
    return (wall, fss.rebalance_count - rebalances0,
            fss.flow_visits - visits0)


def probe_fairshare(repeats: int) -> dict:
    star = min((_fairshare_churn(True) for _ in range(repeats)),
               key=lambda r: r[0])
    disjoint = min((_fairshare_churn(False) for _ in range(repeats)),
                   key=lambda r: r[0])
    return {
        "sim.fairshare.probe_star_us_per_rebalance":
            1e6 * star[0] / max(1, star[1]),
        "sim.fairshare.probe_star_ns_per_visit":
            1e9 * star[0] / max(1, star[2]),
        "sim.fairshare.probe_disjoint_us_per_rebalance":
            1e6 * disjoint[0] / max(1, disjoint[1]),
    }


# -- net / hdfs ------------------------------------------------------------------

def _racked_cluster(topology: str):
    from repro.config import TopologySpec
    from repro.experiments.common import make_platform
    from repro.platform import ClusterSpec
    topo = TopologySpec.parse(topology)
    platform = make_platform(seed=0, topology=topo)
    return platform, platform.provision_cluster("probe",
                                                ClusterSpec.racked(topo))


def probe_net(repeats: int) -> dict:
    platform, cluster = _racked_cluster("5x5x4")
    fabric = platform.datacenter.fabric
    nodes = [vm.node for vm in cluster.vms]
    rng = np.random.default_rng(0)
    pairs = [(nodes[a], nodes[b])
             for a, b in rng.integers(0, len(nodes), size=(20000, 2))]

    def run():
        path = fabric.path
        for src, dst in pairs:
            path(src, dst)

    return {"net.probe_paths_per_s": len(pairs) / _best(run, repeats)}


def probe_hdfs(repeats: int) -> dict:
    _platform, cluster = _racked_cluster("25x5x4")
    namenode = cluster.namenode
    writers = [vm.name for vm in cluster.workers]
    n = 500

    def run():
        choose = namenode.choose_write_targets
        for i in range(n):
            choose(writers[i % len(writers)], 3)

    return {"hdfs.probe_placements_per_s": n / _best(run, repeats)}


# -- mapreduce / datasets ---------------------------------------------------

def probe_mapreduce(repeats: int) -> dict:
    from repro.datasets.text import generate_corpus
    from repro.mapreduce.api import group_by_key
    from repro.mapreduce.local import LocalJobRunner
    from repro.workloads.wordcount import lines_as_records, wordcount_job
    nbytes = 1 * C.MB

    def corpus():
        return generate_corpus(nbytes, rng=np.random.default_rng(0))

    corpus_s = _best(corpus, repeats)
    lines = corpus()
    records = lines_as_records(lines)
    job = wordcount_job("/in", "/out", n_reduces=4)
    local_s = _best(lambda: LocalJobRunner().run(job, records), repeats)
    pairs = [(word, 1) for line in lines for word in line.split()]
    group_s = _best(lambda: group_by_key(pairs), repeats)
    return {
        "datasets.probe_corpus_mb_per_s": nbytes / C.MB / corpus_s,
        "mapreduce.probe_local_records_per_s": len(records) / local_s,
        "mapreduce.probe_group_pairs_per_s": len(pairs) / group_s,
    }


# -- virt / ml ----------------------------------------------------------------

def probe_virt(repeats: int) -> dict:
    from repro.experiments.fig5_migration import migrate_cluster_under
    rounds, cluster_vms = 20, 16

    def run():
        for k in range(rounds):
            report = migrate_cluster_under("idle", 512 * C.MiB, seed=k)
            if len(report.records) != cluster_vms:
                raise RuntimeError("idle migration probe lost a VM")

    return {"virt.probe_idle_migrations_per_s":
            rounds * cluster_vms / _best(run, repeats)}


def probe_ml(repeats: int) -> dict:
    from repro.ml.vectors import EuclideanDistance
    rng = np.random.default_rng(0)
    points, centers = rng.normal(size=(3000, 60)), rng.normal(size=(50, 60))
    measure = EuclideanDistance()
    rounds = 40

    def run():
        for _ in range(rounds):
            measure.to_centers(points, centers)

    return {"ml.probe_distance_pairs_per_s":
            rounds * len(points) * len(centers) / _best(run, repeats)}


# -- cloud / telemetry -----------------------------------------------------------

def probe_cloud(repeats: int) -> dict:
    from repro.cloud import BurstTraffic, LatencyHistogram, TenantRegistry
    tenants = TenantRegistry.synthetic(160, np.random.default_rng(0))

    def arrivals():
        traffic = BurstTraffic("probe", tenants, np.random.default_rng(1),
                               base_rate_per_s=8.0, burst_factor=4.0,
                               burst_every_s=5000.0, burst_duration_s=800.0)
        return sum(1 for _ in traffic.stream(2500.0))

    arrivals_s = _best(arrivals, repeats)
    n_arrivals = arrivals()
    values = np.random.default_rng(2).lognormal(3.0, 1.0, 50000).tolist()

    def observe():
        hist = LatencyHistogram()
        for value in values:
            hist.observe(value)
        return hist

    observe_s = _best(observe, repeats)
    parts = []
    for k in range(200):
        part = LatencyHistogram()
        for value in values[k * 250:(k + 1) * 250]:
            part.observe(value)
        parts.append(part)

    def merge():
        total = LatencyHistogram()
        for part in parts:
            total.merge(part)

    merge_s = _best(merge, repeats)
    return {
        "cloud.probe_arrivals_per_s": n_arrivals / arrivals_s,
        "cloud.probe_hist_observe_per_s": len(values) / observe_s,
        "cloud.probe_hist_merge_us": 1e6 * merge_s / len(parts),
    }


def probe_telemetry(repeats: int) -> dict:
    from repro.cloud import LatencyHistogram
    from repro.telemetry.timeseries import TimeSeriesStore
    n_series, n_ticks = 20, 2000
    names = [f"probe.series{i}" for i in range(n_series)]

    def record():
        store = TimeSeriesStore(step=10.0)
        for tick in range(n_ticks):
            at = 10.0 * tick
            for name in names:
                store.record(name, float(tick), at=at)

    record_s = _best(record, repeats)
    store = TimeSeriesStore(step=10.0)
    hist = LatencyHistogram()
    for value in np.random.default_rng(3).lognormal(3.0, 1.0, 200).tolist():
        hist.observe(value)
    for tick in range(300):
        store.record_histogram("probe.latency", hist, at=10.0 * tick)
    n_queries = 200

    def query():
        for _ in range(n_queries):
            store.quantile_over_time("probe.latency", 0.99, 0.0, 3000.0)

    query_s = _best(query, repeats)
    return {
        "telemetry.probe_record_per_s": n_series * n_ticks / record_s,
        "telemetry.probe_quantile_query_us": 1e6 * query_s / n_queries,
    }


# -- fuzz / parallel ----------------------------------------------------------------

def probe_fuzz(repeats: int) -> dict:
    from repro.fuzz import generate_scenario
    n = 300
    return {"fuzz.probe_scenarios_generated_per_s":
            n / _best(lambda: [generate_scenario(s) for s in range(n)],
                      repeats)}


def noop_worker(item):
    """Fabric worker for the no-op probe (module-level: crosses processes)."""
    return item


def probe_parallel(repeats: int) -> dict:
    from repro.parallel import run_sharded
    n = 400

    def run():
        sharded = run_sharded(list(range(n)), noop_worker, jobs=2)
        if sharded.n_failed:
            raise RuntimeError("no-op fabric probe lost items")

    return {"parallel.probe_noop_items_per_s": n / _best(run, repeats)}


PROBES = (probe_kernel, probe_fairshare, probe_net, probe_hdfs,
          probe_mapreduce, probe_virt, probe_ml, probe_cloud,
          probe_telemetry, probe_fuzz, probe_parallel)


def run_all(repeats: int = 1) -> dict:
    """Every probe metric by name."""
    metrics: dict = {}
    for probe in PROBES:
        metrics.update(probe(repeats))
    return metrics
