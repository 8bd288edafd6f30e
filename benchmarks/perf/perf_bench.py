"""Fair-share engine perf harness — the repo's bench trajectory.

Runs fixed, seeded workloads (scale-stress Wordcount, a TeraSort shuffle
storm, a chaos fault-injection run) once each and writes
``BENCH_fairshare.json`` with wall-clock, kernel events processed, max
heap size, rebalance counts and flow-visit counts.

Usage:
    PYTHONPATH=src python benchmarks/perf/perf_bench.py [--quick]
        [--out BENCH_fairshare.json]
        [--check benchmarks/perf/baselines.json | --write-baselines ...]

``--observatory`` switches the harness to the observability overhead
measurement instead: the same seeded Wordcount runs with the cluster
observatory's detectors off and on, the simulated outputs and the
fair-share engine's deterministic counters must stay bit-identical
(the detectors are read-only by construction), and the observing
overhead (CPU time, detectors on vs off) is recorded in
``BENCH_observatory.json`` (<5% target).

``--timeseries`` is the analogous overhead measurement for the
historical metrics store: the same Wordcount with the registry sampler
off and on, interleaved repeats, bit-identical sim outputs and engine
counters asserted, store digest pinned across repeats, and the CPU cost
of keeping history recorded in ``BENCH_timeseries.json`` (<5% target,
warn-only).

``--check`` compares the run's deterministic counters (simulated elapsed,
kernel events, rebalances, flow visits, completions, chaos digest) against
a checked-in baseline file and exits non-zero on any mismatch; wall-clock
is never checked (warn-only), machines differ.

``--scale`` climbs the 16/100/500/1,000-VM rack-topology ladder, one
fresh worker process per rung via the parallel fabric
(``repro.parallel.run_sharded`` with ``tasks_per_worker=1``); ``--jobs N``
runs rungs concurrently, with bit-identical results either way.
``--parallel`` runs the same fuzz campaign serial and sharded, asserts
the corpus and campaign digests are byte-identical, and records the wall
speedup in ``BENCH_parallel.json`` — the speedup is reported, never
gated (machines differ; CI gates the digests).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from pathlib import Path

from repro import constants as C
from repro.chaos import ChaosInjector
from repro.config import PlatformConfig, TopologySpec
from repro.datasets.text import generate_corpus
from repro.experiments import chaos_faults
from repro.parallel import run_sharded
from repro.platform import ClusterSpec, VHadoopPlatform
from repro.workloads.terasort import run_terasort
from repro.workloads.wordcount import (lines_as_records, scaled_line_sizeof,
                                       wordcount_job)

#: Deterministic per-workload counters compared by --check.
CHECKED_KEYS = ("events_processed", "rebalance_count", "flow_visits",
                "completed_flows")


# -- workloads ---------------------------------------------------------------

def _counters(platform, wall_s):
    sim = platform.sim
    fss = platform.datacenter.fss
    return {
        "wall_s": round(wall_s, 3),
        "events_processed": sim.events_processed,
        "max_heap_size": sim.max_heap_size,
        "cancelled_pruned": sim.cancelled_pruned,
        "rebalance_count": fss.rebalance_count,
        "flow_visits": fss.flow_visits,
        "timer_cancellations": fss.timer_cancellations,
        "max_component_flows": fss.max_component_flows,
        "completed_flows": fss.completed_count,
    }


def wordcount_scale(quick: bool):
    """The 64-node / 4-host / 2 GB scale-stress Wordcount (quick: 16/2/256MB)."""
    scale = 400
    n_hosts, n_nodes, nbytes, n_reduces = (
        (2, 16, 256 * C.MB, 8) if quick else (4, 64, 2 * C.GB, 16))
    platform = VHadoopPlatform(PlatformConfig(n_hosts=n_hosts, seed=0))
    cluster = platform.provision_cluster(
        "bench", ClusterSpec.spread(n_nodes, hosts=n_hosts))
    lines = generate_corpus(nbytes // scale,
                            rng=platform.datacenter.rng.fresh("corpus"))
    platform.upload(cluster, "/in", lines_as_records(lines),
                    sizeof=scaled_line_sizeof(scale), timed=False)
    job = wordcount_job("/in", "/out", n_reduces=n_reduces,
                        volume_scale=scale)
    t0 = time.time()
    report = platform.run_job(cluster, job)
    wall = time.time() - t0
    return repr(report.elapsed), _counters(platform, wall), {}


def terasort_storm(quick: bool):
    """TeraSort tuned for shuffle pressure: every mapper feeds every reducer."""
    n_hosts, n_nodes, nbytes, n_reduces = (
        (2, 16, 128 * C.MB, 16) if quick else (8, 64, 512 * C.MB, 64))
    platform = VHadoopPlatform(PlatformConfig(n_hosts=n_hosts, seed=0))
    cluster = platform.provision_cluster(
        "storm", ClusterSpec.spread(n_nodes, hosts=n_hosts))
    runner = platform.runner(cluster)
    t0 = time.time()
    tera = run_terasort(runner, cluster, nbytes, n_reduces=n_reduces,
                        seed_tag="storm")
    wall = time.time() - t0
    if not tera.validated:
        raise SystemExit("terasort_storm: TeraValidate failed")
    elapsed = tera.generation_time_s + tera.sort_time_s
    return repr(elapsed), _counters(platform, wall), {}


def chaos_run(quick: bool):
    """Wordcount under the default fault plan (crash, host loss, slow disk)."""
    size_mb = chaos_faults.QUICK_SIZE_MB
    seed = 7
    clean_report, _records = chaos_faults._run_clean(seed, size_mb)
    platform, cluster, job = chaos_faults._build(seed, size_mb)
    runner = platform.runner(cluster)
    plan = chaos_faults.default_plan(cluster, clean_report.elapsed)
    injector = ChaosInjector(cluster, plan)
    t0 = time.time()
    done = runner.submit(job)
    injector.start()
    platform.sim.run_until(done)
    wall = time.time() - t0
    return (repr(done.value.elapsed), _counters(platform, wall),
            {"digest": injector.report.digest()})


WORKLOADS = (("wordcount_scale", wordcount_scale),
             ("terasort_storm", terasort_storm),
             ("chaos", chaos_run))


# -- kernel scale ladder -----------------------------------------------------

#: One rung per target VM count, each a racked ``RxHxV`` topology.  Every
#: rung runs in a fresh subprocess so its peak RSS is attributable, and
#: covers a wordcount slice plus a terasort slice.  ``rss_limit_mb`` is
#: the gated memory ceiling — generous (roughly 3x the measured peak on
#: the reference machine) because the gate exists to catch O(n^2)
#: blowups at 1,000 endpoints, not allocator noise.  Wall time is
#: reported but never gated.
SCALE_RUNGS = (
    {"name": "16", "topology": "1x2x8", "wc_mb": 256, "wc_reduces": 8,
     "tera_mb": 128, "tera_reduces": 16, "rss_limit_mb": 256},
    {"name": "100", "topology": "5x5x4", "wc_mb": 640, "wc_reduces": 16,
     "tera_mb": 256, "tera_reduces": 32, "rss_limit_mb": 384},
    {"name": "500", "topology": "25x5x4", "wc_mb": 1920, "wc_reduces": 32,
     "tera_mb": 512, "tera_reduces": 32, "rss_limit_mb": 768},
    {"name": "1000", "topology": "25x5x8", "wc_mb": 3840, "wc_reduces": 64,
     "tera_mb": 1024, "tera_reduces": 64, "rss_limit_mb": 1024},
)

#: Materialize 1/SCALE of the wordcount corpus; simulate the full volume.
SCALE_VOLUME = 400

#: Deterministic per-rung counters compared by --scale --check.
SCALE_CHECKED_KEYS = ("events_processed", "rebalance_count", "flow_visits",
                      "completed_flows")


def scale_rung(rung: dict) -> dict:
    """Run one ladder rung in-process (subprocess entry)."""
    import resource

    topo = TopologySpec.parse(rung["topology"])
    platform = VHadoopPlatform(PlatformConfig(topology=topo, seed=0))
    cluster = platform.provision_cluster("ladder", ClusterSpec.racked(topo))
    placement = [(vm.name, vm.host.name, vm.host.rack_name)
                 for vm in cluster.vms]
    placement_digest = hashlib.sha256(
        repr(placement).encode("utf-8")).hexdigest()[:16]
    t0 = time.time()
    lines = generate_corpus(rung["wc_mb"] * C.MB // SCALE_VOLUME,
                            rng=platform.datacenter.rng.fresh("corpus"))
    platform.upload(cluster, "/in", lines_as_records(lines),
                    sizeof=scaled_line_sizeof(SCALE_VOLUME), timed=False)
    wc_report = platform.run_job(
        cluster, wordcount_job("/in", "/out",
                               n_reduces=rung["wc_reduces"],
                               volume_scale=SCALE_VOLUME))
    runner = platform.runner(cluster)
    tera = run_terasort(runner, cluster, rung["tera_mb"] * C.MB,
                        n_reduces=rung["tera_reduces"], seed_tag="ladder")
    if not tera.validated:
        raise SystemExit(f"scale rung {rung['name']}: TeraValidate failed")
    wall = time.time() - t0
    counters = _counters(platform, wall)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "topology": rung["topology"],
        "n_vms": topo.n_vms,
        "racks": topo.racks,
        "placement_digest": placement_digest,
        # Two-element array [wordcount, terasort], JSON round-trip exact;
        # earlier versions stringified the tuple via repr(), which made
        # the baselines grep-hostile and locked consumers to Python.
        "sim_elapsed": [wc_report.elapsed,
                        tera.generation_time_s + tera.sort_time_s],
        "wall_s": counters["wall_s"],
        "events_per_sec": int(counters["events_processed"] / max(wall, 1e-9)),
        "peak_rss_mb": round(peak_rss_mb, 1),
        "rss_limit_mb": rung["rss_limit_mb"],
        "path_cache": platform.datacenter.fabric.path_cache_stats(),
        "counters": counters,
    }


def _rung_by_name(name: str) -> dict:
    for rung in SCALE_RUNGS:
        if rung["name"] == name:
            return rung
    raise SystemExit(f"unknown scale rung {name!r}; "
                     f"have {[r['name'] for r in SCALE_RUNGS]}")


def _ladder_rung_worker(name: str) -> dict:
    """Module-level worker for :func:`repro.parallel.run_sharded`.

    ``SystemExit`` (TeraValidate failure) is converted to a plain
    exception so the fabric records it as an item failure instead of a
    dead worker.
    """
    try:
        return scale_rung(_rung_by_name(name))
    except SystemExit as exc:
        raise RuntimeError(str(exc)) from None


def run_scale_ladder(quick: bool, jobs: int = 1) -> dict:
    """Climb the ladder, one worker process per rung (clean peak RSS).

    Rungs are independent seeded simulations, so they shard over the
    parallel fabric; ``tasks_per_worker=1`` keeps the fresh-process-per-
    rung property the old subprocess loop had, making each rung's peak
    RSS attributable.  With ``jobs>1`` rungs run concurrently — results
    and their merge order are identical regardless (pinned by the scale
    baselines).
    """
    rungs = SCALE_RUNGS[:2] if quick else SCALE_RUNGS
    out = {"generated_by": "benchmarks/perf/perf_bench.py --scale",
           "mode": "quick" if quick else "full",
           "rungs": {}}
    sharded = run_sharded([r["name"] for r in rungs], _ladder_rung_worker,
                          jobs=jobs, tasks_per_worker=1)
    by_name = {item.key: item for item in sharded.results}
    for rung in rungs:
        item = by_name[rung["name"]]
        if not item.ok:
            raise SystemExit(f"scale rung {rung['name']}: {item.error}")
        entry = item.value
        print(f"[scale:{rung['name']}] {entry['topology']}: "
              f"wall {entry['wall_s']}s, "
              f"{entry['events_per_sec']} events/s, "
              f"peak RSS {entry['peak_rss_mb']} MB "
              f"(limit {entry['rss_limit_mb']})")
        if entry["peak_rss_mb"] > rung["rss_limit_mb"]:
            raise SystemExit(
                f"scale rung {rung['name']}: peak RSS "
                f"{entry['peak_rss_mb']} MB exceeds the "
                f"{rung['rss_limit_mb']} MB ceiling")
        out["rungs"][rung["name"]] = entry
    return out


def check_scale(results: dict, baseline_path: Path) -> int:
    """Gate the ladder's deterministic counters; never wall time."""
    baselines = json.loads(baseline_path.read_text(encoding="utf-8"))
    failures = 0
    for name, entry in results["rungs"].items():
        want = baselines["rungs"].get(name)
        if want is None:
            print(f"check: no scale baseline for rung {name!r}",
                  file=sys.stderr)
            failures += 1
            continue
        for key in ("sim_elapsed", "placement_digest"):
            if entry[key] != want[key]:
                print(f"check: scale.{name}.{key} {entry[key]} != "
                      f"baseline {want[key]}", file=sys.stderr)
                failures += 1
        for key in SCALE_CHECKED_KEYS:
            if entry["counters"][key] != want["counters"][key]:
                print(f"check: scale.{name}.{key} "
                      f"{entry['counters'][key]} != baseline "
                      f"{want['counters'][key]}", file=sys.stderr)
                failures += 1
    if failures:
        print(f"check: {failures} scale regression(s)", file=sys.stderr)
        return 1
    print("check: all scale-ladder counters match the baselines")
    return 0


def to_scale_baselines(results: dict) -> dict:
    """Keep only what --scale --check compares."""
    slim = {"mode": results["mode"], "rungs": {}}
    for name, entry in results["rungs"].items():
        slim["rungs"][name] = {
            "sim_elapsed": entry["sim_elapsed"],
            "placement_digest": entry["placement_digest"],
            "counters": {k: entry["counters"][k]
                         for k in SCALE_CHECKED_KEYS}}
    return slim


# -- parallel campaign fabric ------------------------------------------------

#: The wall-clock target a 4+-core runner is expected to hit with 4 jobs;
#: recorded alongside the measurement, never gated (CI gates the digests).
PARALLEL_SPEEDUP_TARGET = 3.0


def _campaign_digests(result) -> dict:
    digests = {}
    for note in result.notes:
        for key in ("corpus digest", "campaign digest"):
            if note.startswith(key + ": "):
                digests[key.replace(" ", "_")] = note.split(": ", 1)[1]
    return digests


def run_parallel_bench(quick: bool, jobs: int = 4) -> dict:
    """The same fuzz campaign serial and sharded: digests must be
    byte-identical (the fabric's merge contract); the speedup is reported
    against however many cores this machine actually has."""
    from repro.experiments import fuzz_campaign

    seeds = (0, 25) if quick else (0, 100)
    runs = {}
    for label, n_jobs in (("serial", 1), ("sharded", jobs)):
        t0 = time.time()
        result = fuzz_campaign.run(seeds=seeds, jobs=n_jobs)
        wall = time.time() - t0
        runs[label] = {"jobs": n_jobs, "wall_s": round(wall, 3),
                       "failing_seeds": len(result.rows),
                       **_campaign_digests(result)}
        print(f"[parallel:{label}] jobs={n_jobs} wall {wall:.1f}s "
              f"campaign digest {runs[label].get('campaign_digest')}")
    for key in ("corpus_digest", "campaign_digest"):
        if runs["serial"].get(key) != runs["sharded"].get(key):
            raise SystemExit(
                f"parallel bench: {key} diverged between jobs=1 and "
                f"jobs={jobs}: {runs['serial'].get(key)} != "
                f"{runs['sharded'].get(key)}")
    speedup = round(runs["serial"]["wall_s"]
                    / max(runs["sharded"]["wall_s"], 1e-9), 2)
    cores = os.cpu_count() or 1
    status = ("meets" if speedup >= PARALLEL_SPEEDUP_TARGET else
              "below (expected on few-core machines)")
    print(f"[parallel] speedup {speedup}x with {jobs} jobs on {cores} "
          f"core(s) — {status} the {PARALLEL_SPEEDUP_TARGET}x "
          f"4-core target; digests byte-identical")
    return {
        "generated_by": "benchmarks/perf/perf_bench.py --parallel",
        "mode": "quick" if quick else "full",
        "seed_range": f"{seeds[0]}:{seeds[1]}",
        "cores": cores,
        "serial": runs["serial"],
        "sharded": runs["sharded"],
        "wall_speedup": speedup,
        "speedup_target_on_4_cores": PARALLEL_SPEEDUP_TARGET,
        "digests_identical": True,
    }


# -- observatory overhead ----------------------------------------------------

#: Engine counters that must be bit-identical with detectors on — the
#: observatory only *reads* telemetry, so the fair-share engine does the
#: same work either way.  ``events_processed`` is deliberately absent:
#: detector ticks are sim events, so the kernel legitimately processes
#: more of them.
OBSERVATORY_IDENTICAL = ("rebalance_count", "flow_visits",
                         "completed_flows")

#: Wall-clock overhead target for the detectors-on run (warn-only, like
#: every other wall-clock figure here — machines differ).
OBSERVATORY_OVERHEAD_TARGET = 0.05

#: Repeats per configuration; the *minimum* wall is the measurement (the
#: runs are sub-second, so scheduler noise dominates a single sample).
OBSERVATORY_REPEATS = 5


def _observatory_wordcount(quick: bool, with_observatory: bool):
    """One seeded Wordcount, optionally with the observatory running."""
    scale = 400
    n_hosts, n_nodes, nbytes, n_reduces = (
        (2, 16, 256 * C.MB, 8) if quick else (4, 64, 1 * C.GB, 16))
    platform = VHadoopPlatform(PlatformConfig(n_hosts=n_hosts, seed=0))
    cluster = platform.provision_cluster(
        "obsbench", ClusterSpec.spread(n_nodes, hosts=n_hosts))
    lines = generate_corpus(nbytes // scale,
                            rng=platform.datacenter.rng.fresh("corpus"))
    platform.upload(cluster, "/in", lines_as_records(lines),
                    sizeof=scaled_line_sizeof(scale), timed=False)
    obs = cluster.observatory().start() if with_observatory else None
    job = wordcount_job("/in", "/out", n_reduces=n_reduces,
                        volume_scale=scale)
    t0, c0 = time.time(), time.process_time()
    report = platform.run_job(cluster, job)
    wall = time.time() - t0
    cpu = time.process_time() - c0
    if obs is not None:
        obs.stop()
    records = platform.collect(cluster, report)
    output_digest = hashlib.sha256(
        repr(records).encode("utf-8")).hexdigest()[:16]
    alerts = len(obs.alerts()) if obs is not None else 0
    counters = _counters(platform, wall)
    counters["cpu_s"] = round(cpu, 3)
    return repr(report.elapsed), output_digest, counters, alerts


def _observatory_fold(runs, with_observatory: bool):
    """Fold one configuration's repeats: every repeat must agree
    bit-for-bit, and the minimum wall is the measurement."""
    elapsed, digest, counters, alerts = runs[0]
    label = "on: " if with_observatory else "off:"
    for other_elapsed, other_digest, other, other_alerts in runs[1:]:
        same = (other_elapsed == elapsed and other_digest == digest
                and other_alerts == alerts
                and all(other[k] == counters[k]
                        for k in OBSERVATORY_IDENTICAL))
        if not same:
            raise SystemExit(
                f"observatory: detectors {label.strip()} run is not "
                "deterministic across repeats")
    counters = dict(counters)
    counters["wall_s"] = min(r[2]["wall_s"] for r in runs)
    counters["cpu_s"] = min(r[2]["cpu_s"] for r in runs)
    print(f"[observatory] detectors {label} cpu {counters['cpu_s']}s, "
          f"wall {counters['wall_s']}s (min of {OBSERVATORY_REPEATS}), "
          f"{counters['events_processed']} events, {alerts} alerts")
    return elapsed, digest, counters, alerts


def run_observatory_suite(quick: bool) -> dict:
    """Detectors off vs on: assert zero simulated perturbation, measure
    the wall-clock cost of observing."""
    # Interleave the configurations so slow drift in the process (allocator
    # growth, CPU frequency) biases neither side.
    off_runs, on_runs = [], []
    for _ in range(OBSERVATORY_REPEATS):
        off_runs.append(_observatory_wordcount(quick, False))
        on_runs.append(_observatory_wordcount(quick, True))
    off_elapsed, off_digest, off, _ = _observatory_fold(off_runs, False)
    on_elapsed, on_digest, on, alerts = _observatory_fold(on_runs, True)
    if on_elapsed != off_elapsed:
        raise SystemExit(
            f"observatory: detectors perturbed the simulation — elapsed "
            f"{on_elapsed} != {off_elapsed}")
    if on_digest != off_digest:
        raise SystemExit(
            "observatory: detectors changed the job's output records")
    for key in OBSERVATORY_IDENTICAL:
        if on[key] != off[key]:
            raise SystemExit(
                f"observatory: engine counter {key} drifted with "
                f"detectors on: {on[key]} != {off[key]}")
    # CPU time is the overhead measurement: the simulator is
    # single-threaded, so process time is the work actually added, free of
    # scheduler noise that dwarfs a sub-second wall-clock delta.
    overhead = on["cpu_s"] / max(off["cpu_s"], 1e-9) - 1.0
    status = "within" if overhead < OBSERVATORY_OVERHEAD_TARGET else "OVER"
    print(f"[observatory] cpu overhead {overhead:+.1%} "
          f"({status} the {OBSERVATORY_OVERHEAD_TARGET:.0%} target), "
          "sim outputs and engine counters bit-identical")
    return {
        "generated_by": "benchmarks/perf/perf_bench.py --observatory",
        "mode": "quick" if quick else "full",
        "workload": "wordcount",
        "sim_elapsed": off_elapsed,
        "output_digest": off_digest,
        "detectors_off": off,
        "detectors_on": on,
        "identical_counters": list(OBSERVATORY_IDENTICAL),
        "cpu_overhead": round(overhead, 4),
        "cpu_overhead_target": OBSERVATORY_OVERHEAD_TARGET,
        # True findings, not noise: the bench Wordcount's hash partitioning
        # is genuinely skewed, and the skew detector says so.  Zero false
        # positives on a *fault-free* run is asserted by the chaos matrix
        # experiment's clean baseline, where the workload is known-quiet.
        "alerts_during_run": alerts,
    }


# -- time-series store overhead ----------------------------------------------

#: Same read-only contract as the observatory: the sampler only snapshots
#: the metrics registry, so these engine counters must not move.
TIMESERIES_IDENTICAL = OBSERVATORY_IDENTICAL

#: CPU-time overhead target for the sampler-on run (warn-only).
TIMESERIES_OVERHEAD_TARGET = 0.05

TIMESERIES_REPEATS = 5


def _timeseries_wordcount(quick: bool, with_store: bool):
    """One seeded Wordcount, optionally with the registry sampler running."""
    scale = 400
    n_hosts, n_nodes, nbytes, n_reduces = (
        (2, 16, 256 * C.MB, 8) if quick else (4, 64, 1 * C.GB, 16))
    platform = VHadoopPlatform(PlatformConfig(n_hosts=n_hosts, seed=0))
    cluster = platform.provision_cluster(
        "tsbench", ClusterSpec.spread(n_nodes, hosts=n_hosts))
    lines = generate_corpus(nbytes // scale,
                            rng=platform.datacenter.rng.fresh("corpus"))
    platform.upload(cluster, "/in", lines_as_records(lines),
                    sizeof=scaled_line_sizeof(scale), timed=False)
    store = cluster.telemetry.start_timeseries() if with_store else None
    job = wordcount_job("/in", "/out", n_reduces=n_reduces,
                        volume_scale=scale)
    t0, c0 = time.time(), time.process_time()
    report = platform.run_job(cluster, job)
    wall = time.time() - t0
    cpu = time.process_time() - c0
    store_digest, n_series = "", 0
    if store is not None:
        cluster.telemetry.stop_timeseries()
        store_digest, n_series = store.digest(), len(store)
    records = platform.collect(cluster, report)
    output_digest = hashlib.sha256(
        repr(records).encode("utf-8")).hexdigest()[:16]
    counters = _counters(platform, wall)
    counters["cpu_s"] = round(cpu, 3)
    return (repr(report.elapsed), output_digest, counters,
            (store_digest, n_series))


def _timeseries_fold(runs, with_store: bool):
    """Fold one configuration's repeats (everything must agree bit-exact,
    including the store digest); the minimum cpu/wall is the measurement."""
    elapsed, digest, counters, store = runs[0]
    label = "on: " if with_store else "off:"
    for other_elapsed, other_digest, other, other_store in runs[1:]:
        same = (other_elapsed == elapsed and other_digest == digest
                and other_store == store
                and all(other[k] == counters[k]
                        for k in TIMESERIES_IDENTICAL))
        if not same:
            raise SystemExit(
                f"timeseries: sampler {label.strip()} run is not "
                "deterministic across repeats")
    counters = dict(counters)
    counters["wall_s"] = min(r[2]["wall_s"] for r in runs)
    counters["cpu_s"] = min(r[2]["cpu_s"] for r in runs)
    print(f"[timeseries] sampler {label} cpu {counters['cpu_s']}s, "
          f"wall {counters['wall_s']}s (min of {TIMESERIES_REPEATS}), "
          f"{counters['events_processed']} events"
          + (f", {store[1]} series, store digest {store[0]}"
             if with_store else ""))
    return elapsed, digest, counters, store


def run_timeseries_suite(quick: bool) -> dict:
    """Registry sampler off vs on: zero simulated perturbation, measure
    the CPU cost of keeping history."""
    off_runs, on_runs = [], []
    for _ in range(TIMESERIES_REPEATS):  # interleaved, like --observatory
        off_runs.append(_timeseries_wordcount(quick, False))
        on_runs.append(_timeseries_wordcount(quick, True))
    off_elapsed, off_digest, off, _ = _timeseries_fold(off_runs, False)
    on_elapsed, on_digest, on, store = _timeseries_fold(on_runs, True)
    if on_elapsed != off_elapsed:
        raise SystemExit(
            f"timeseries: sampler perturbed the simulation — elapsed "
            f"{on_elapsed} != {off_elapsed}")
    if on_digest != off_digest:
        raise SystemExit(
            "timeseries: sampler changed the job's output records")
    for key in TIMESERIES_IDENTICAL:
        if on[key] != off[key]:
            raise SystemExit(
                f"timeseries: engine counter {key} drifted with the "
                f"sampler on: {on[key]} != {off[key]}")
    overhead = on["cpu_s"] / max(off["cpu_s"], 1e-9) - 1.0
    status = "within" if overhead < TIMESERIES_OVERHEAD_TARGET else "OVER"
    print(f"[timeseries] cpu overhead {overhead:+.1%} "
          f"({status} the {TIMESERIES_OVERHEAD_TARGET:.0%} target), "
          "sim outputs and engine counters bit-identical")
    return {
        "generated_by": "benchmarks/perf/perf_bench.py --timeseries",
        "mode": "quick" if quick else "full",
        "workload": "wordcount",
        "sim_elapsed": off_elapsed,
        "output_digest": off_digest,
        "sampler_off": off,
        "sampler_on": on,
        "n_series": store[1],
        "store_digest": store[0],
        "identical_counters": list(TIMESERIES_IDENTICAL),
        "cpu_overhead": round(overhead, 4),
        "cpu_overhead_target": TIMESERIES_OVERHEAD_TARGET,
    }


# -- harness -----------------------------------------------------------------

def run_suite(quick: bool) -> dict:
    out = {"generated_by": "benchmarks/perf/perf_bench.py",
           "mode": "quick" if quick else "full",
           "workloads": {}}
    for name, fn in WORKLOADS:
        elapsed, counters, extra = fn(quick)
        # "incremental" is the key benchmarks/perf/baselines.json uses.
        out["workloads"][name] = {"sim_elapsed": elapsed,
                                  "incremental": counters, **extra}
        print(f"[{name}] wall {counters['wall_s']}s, "
              f"{counters['events_processed']} events, "
              f"{counters['rebalance_count']} rebalances, "
              f"{counters['flow_visits']} flow visits")
    return out


def check(results: dict, baseline_path: Path) -> int:
    baselines = json.loads(baseline_path.read_text(encoding="utf-8"))
    if baselines.get("mode") != results["mode"]:
        print(f"check: baseline mode {baselines.get('mode')!r} does not "
              f"match run mode {results['mode']!r}", file=sys.stderr)
        return 1
    failures = 0
    for name, entry in results["workloads"].items():
        want = baselines["workloads"].get(name)
        if want is None:
            print(f"check: no baseline for workload {name!r}",
                  file=sys.stderr)
            failures += 1
            continue
        if entry["sim_elapsed"] != want["sim_elapsed"]:
            print(f"check: {name}.sim_elapsed {entry['sim_elapsed']} != "
                  f"baseline {want['sim_elapsed']}", file=sys.stderr)
            failures += 1
        for key in CHECKED_KEYS:
            got = entry["incremental"][key]
            expect = want["incremental"][key]
            if got != expect:
                print(f"check: {name}.{key} {got} != baseline {expect}",
                      file=sys.stderr)
                failures += 1
        if "digest" in want and entry.get("digest") != want["digest"]:
            print(f"check: {name}.digest {entry.get('digest')} != "
                  f"baseline {want['digest']}", file=sys.stderr)
            failures += 1
    if failures:
        print(f"check: {failures} counter regression(s)", file=sys.stderr)
        return 1
    print("check: all deterministic counters match the baselines")
    return 0


def to_baselines(results: dict) -> dict:
    """Strip wall-clock and derived fields; keep only what --check reads."""
    slim = {"mode": results["mode"], "workloads": {}}
    for name, entry in results["workloads"].items():
        keep = {"sim_elapsed": entry["sim_elapsed"],
                "incremental": {k: entry["incremental"][k]
                                for k in CHECKED_KEYS}}
        if "digest" in entry:
            keep["digest"] = entry["digest"]
        slim["workloads"][name] = keep
    return slim


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small workloads (CI perf-smoke)")
    parser.add_argument("--observatory", action="store_true",
                        help="measure observatory overhead instead "
                             "(detectors off vs on; writes "
                             "BENCH_observatory.json)")
    parser.add_argument("--scale", action="store_true",
                        help="climb the 16/100/500/1000-VM rack-topology "
                             "ladder instead (quick: first two rungs; "
                             "writes BENCH_scale.json)")
    parser.add_argument("--scale-rung", metavar="NAME",
                        help=argparse.SUPPRESS)  # internal subprocess entry
    parser.add_argument("--scale-probe", metavar="FILE",
                        help=argparse.SUPPRESS)
    parser.add_argument("--timeseries", action="store_true",
                        help="measure the time-series store's sampling "
                             "overhead instead (registry sampler off vs "
                             "on; writes BENCH_timeseries.json)")
    parser.add_argument("--parallel", action="store_true",
                        help="measure the parallel campaign fabric instead: "
                             "the same fuzz campaign serial and sharded, "
                             "digest-compared (writes BENCH_parallel.json)")
    parser.add_argument("--jobs", "-j", type=int, default=None,
                        help="worker processes for --scale (default 1) and "
                             "the sharded half of --parallel (default 4)")
    parser.add_argument("--out", default=None,
                        help="result file (default: BENCH_fairshare.json, "
                             "or BENCH_observatory.json with --observatory)")
    parser.add_argument("--check", metavar="FILE",
                        help="compare deterministic counters against FILE")
    parser.add_argument("--write-baselines", metavar="FILE",
                        help="write the run's deterministic counters to FILE")
    args = parser.parse_args(argv)

    if args.scale_rung:
        entry = scale_rung(_rung_by_name(args.scale_rung))
        Path(args.scale_probe).write_text(
            json.dumps(entry, indent=2) + "\n", encoding="utf-8")
        return 0

    if args.parallel:
        results = run_parallel_bench(quick=args.quick, jobs=args.jobs or 4)
        out = args.out or "BENCH_parallel.json"
        Path(out).write_text(json.dumps(results, indent=2) + "\n",
                             encoding="utf-8")
        print(f"wrote {out}")
        return 0

    if args.scale:
        results = run_scale_ladder(quick=args.quick, jobs=args.jobs or 1)
        out = args.out or "BENCH_scale.json"
        Path(out).write_text(json.dumps(results, indent=2) + "\n",
                             encoding="utf-8")
        print(f"wrote {out}")
        if args.write_baselines:
            Path(args.write_baselines).write_text(
                json.dumps(to_scale_baselines(results), indent=2) + "\n",
                encoding="utf-8")
            print(f"wrote {args.write_baselines}")
        if args.check:
            return check_scale(results, Path(args.check))
        return 0

    if args.observatory:
        results = run_observatory_suite(quick=args.quick)
        out = args.out or "BENCH_observatory.json"
        Path(out).write_text(json.dumps(results, indent=2) + "\n",
                             encoding="utf-8")
        print(f"wrote {out}")
        return 0

    if args.timeseries:
        results = run_timeseries_suite(quick=args.quick)
        out = args.out or "BENCH_timeseries.json"
        Path(out).write_text(json.dumps(results, indent=2) + "\n",
                             encoding="utf-8")
        print(f"wrote {out}")
        return 0

    out = args.out or "BENCH_fairshare.json"
    results = run_suite(quick=args.quick)
    Path(out).write_text(json.dumps(results, indent=2) + "\n",
                         encoding="utf-8")
    print(f"wrote {out}")
    if args.write_baselines:
        Path(args.write_baselines).write_text(
            json.dumps(to_baselines(results), indent=2) + "\n",
            encoding="utf-8")
        print(f"wrote {args.write_baselines}")
    if args.check:
        return check(results, Path(args.check))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
