#!/usr/bin/env python3
"""End-to-end + per-layer benchmark of the vHadoop simulator.

    python benchmarks/e2e/bench.py run [--seed S] [--reps N] [--out FILE]
    python benchmarks/e2e/bench.py run --workload W --seed S --seconds T \
        --trace 0|1                       # one workload, one JSON line
    python benchmarks/e2e/bench.py compare A.json B.json
    python benchmarks/e2e/bench.py list

Everything is measured from outside the program: each workload rep runs
in a fresh single-threaded subprocess (``_rep``) whose cwd is a scratch
directory under ``benchmarks/e2e/.work``, with ``PYTHONHASHSEED`` varied
across reps.  Host time is reported at reference speed: every rep
carries a speed meter (``hostspeed.py``) that takes the shared host's
changing pace out of it.  See README.md beside this file for the
workloads, the metric glossary and how the numbers interact.
"""

from __future__ import annotations

import argparse
import fcntl
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
SRC = REPO / "src"
WORK = HERE / ".work"
sys.path[:0] = [str(SRC), str(HERE)]

import spec  # noqa: E402  (needs HERE on sys.path)

SCHEMA = 1
#: The driver's per-run ceiling is 180 s; no single rep may outlive this.
REP_TIMEOUT_CAP_S = 120.0
SETUP_SAMPLES = 3


# -- the rep subprocess (runs the workload) ---------------------------------

def child_rep(args) -> int:
    """One rep of one workload in this (fresh) process; JSON to ``--out``."""
    import hostspeed
    meter = hostspeed.SpeedMeter()
    born = time.time()        # spawn -> here is interpreter start-up
    first = meter.mark()
    meter.start()
    import tracing
    import workloads as W
    wl = W.WORKLOADS[args.workload]
    size = W.SIZES[args.size][wl.name]
    doc: dict = {"workload": wl.name, "seed": args.seed, "size": args.size,
                 "traced": bool(args.trace),
                 "hashseed": os.environ.get("PYTHONHASHSEED")}
    census = W.Census()
    tracer = None
    try:
        if args.trace:
            # Before set-up, so that provisioning, upload and dataset
            # generation are attributed too; a traced rep's own
            # ``setup_s`` is never reported.
            os.environ[W.TRACE_ENV] = "1"
            tracer = tracing.install()
        with census:
            state = wl.setup(args.seed, size)
            begin = meter.mark()
            doc["setup_s"] = (born - args.spawned_at) \
                + meter.seconds(first, begin)[0]
            if args.setup_only:
                return _write_json(args.out, doc)
            setup_end = tracer.mark() if tracer else 0
            cpu0, wall0 = os.times(), time.perf_counter()
            outcome = tracer.root(lambda: wl.run(state)) if tracer \
                else wl.run(state)
            wall1, cpu1 = time.perf_counter(), os.times()
            end = meter.mark()
        counts = census.counts() if wl.parent_census else {}
        counts.update(outcome.counts)
        own_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # Host time at reference speed (see hostspeed.py): the meter's
        # own spins are in neither the seconds nor the CPU time.
        wall_s, measured_s = meter.seconds(begin, end)
        spins_s = (meter.samples[end][0] - meter.samples[begin][1]) \
            - measured_s
        doc.update({
            "wall_s": wall_s,
            "cpu_s": (sum(cpu1[:4]) - sum(cpu0[:4]) - spins_s)
            * wall_s / measured_s,
            "raw_wall_s": wall1 - wall0,
            "host_slowdown": measured_s / wall_s,
            "peak_rss_mb": max(own_rss, outcome.fleet_peak_rss_mb),
            "work_units": outcome.work_units,
            "sim_headline_s": outcome.sim_headline_s,
            "digest": outcome.digest,
            "checks_attempted": len(outcome.checks),
            "failed_checks": [name for name, ok in outcome.checks if not ok],
            "counts": counts,
        })
        item_wall_s = counts.pop("parallel.item_wall_s", None)
        if item_wall_s is not None:
            # In-run speedup: what the items cost one after another /
            # what the campaign took, within this rep (both as measured).
            doc["parallel_speedup"] = item_wall_s / doc["raw_wall_s"]
        if tracer is not None:
            spans = tracer.aggregate(since=setup_end)
            tracing.merge_aggregates(spans, outcome.worker_spans)
            doc["spans"] = spans
            doc["setup_spans"] = tracer.aggregate(until=setup_end)
    except Exception:  # noqa: BLE001 — a rep's failure is a recorded result
        doc["error"] = traceback.format_exc()[-2000:]
        _write_json(args.out, doc)
        return 1
    finally:
        meter.stop()
        tracing.uninstall()
    return _write_json(args.out, doc)


def child_probes(args) -> int:
    import probes
    return _write_json(args.out, probes.run_all(args.repeats))


def _write_json(path: str, doc: dict) -> int:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return 0


# -- the parent: spawning, hygiene, failure containment ----------------------

class BenchLock:
    """Refuses to measure while another bench process holds the box."""

    def __enter__(self) -> "BenchLock":
        WORK.mkdir(parents=True, exist_ok=True)
        self._fh = open(WORK / "bench.lock", "w")
        try:
            fcntl.flock(self._fh, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError:
            self._fh.close()
            raise SystemExit("bench: another benchmark run holds "
                             f"{WORK / 'bench.lock'}; refusing to time "
                             "against it") from None
        return self

    def __exit__(self, *exc) -> None:
        fcntl.flock(self._fh, fcntl.LOCK_UN)
        self._fh.close()


def _spawn(mode_args: list, hashseed: int, timeout_s: float) -> dict:
    """Run ``bench.py <mode_args>`` in a scratch cwd; never raises.

    Returns the child's JSON, or ``{"error": ...}`` on a crash, a
    non-zero exit without output, or a timeout (the child is killed and
    waited for).
    """
    scratch = tempfile.mkdtemp(prefix="rep-", dir=WORK)
    out = os.path.join(scratch, "out.json")
    env = dict(os.environ, PYTHONHASHSEED=str(hashseed),
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    env.pop("PYTHONPATH", None)
    cmd = [sys.executable, str(HERE / "bench.py")] + mode_args + [
        "--out", out, "--spawned-at", repr(time.time())]
    try:
        # Its own session, so that a timeout can kill the rep *and* any
        # fabric workers it spawned in one go.
        proc = subprocess.Popen(cmd, cwd=scratch, env=env,
                                stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE, text=True,
                                start_new_session=True)
        try:
            _stdout, stderr = proc.communicate(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return {"error": f"timed out after {timeout_s:.0f} s"}
        if os.path.exists(out):
            with open(out, encoding="utf-8") as fh:
                doc = json.load(fh)
        else:
            doc = {}
        if proc.returncode != 0 and "error" not in doc:
            doc["error"] = (f"exit code {proc.returncode}: "
                            + (stderr or "")[-2000:])
        return doc
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _hashseed(seed: int, index: int) -> int:
    return 1 + (seed * 7919 + index * 104729) % 4294967290


def _rep_timeout(name: str, size: str) -> float:
    import workloads as W
    if size == "smoke":
        return 60.0
    return min(10.0 * W.WORKLOADS[name].expected_s, REP_TIMEOUT_CAP_S)


def run_rep(name: str, seed: int, size: str, index: int, *,
            trace: bool = False, setup_only: bool = False) -> dict:
    args = ["_rep", "--workload", name, "--seed", str(seed), "--size", size,
            "--trace", "1" if trace else "0"]
    if setup_only:
        args.append("--setup-only")
    return _spawn(args, _hashseed(seed, index), _rep_timeout(name, size))


def run_probes(repeats: int) -> dict:
    return _spawn(["_probes", "--repeats", str(repeats)], 1,
                  REP_TIMEOUT_CAP_S)


def environment() -> dict:
    def git(*argv):
        try:
            return subprocess.run(["git", "-C", str(REPO)] + list(argv),
                                  capture_output=True, text=True,
                                  timeout=20, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            return None
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    status = git("status", "--porcelain")
    return {
        "nproc": os.cpu_count(),
        "loadavg_at_start": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "machine": platform.platform(),
        "git_commit": git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "started_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


# -- measuring one workload ---------------------------------------------------

def _stats(values: list, unit: str) -> dict:
    return {"median": statistics.median(values), "min": min(values),
            "max": max(values), "n": len(values), "unit": unit,
            "values": values}


def measure_workload(name: str, seed: int, size: str, *, reps: int = 0,
                     min_seconds: float = 0.0, traced: bool = True,
                     setup_samples: int = 1) -> dict:
    """All passes of one workload, folded into its result entry.

    Untraced reps: exactly ``reps`` when given, else as many as it takes
    for their timed regions to add up to ``min_seconds`` at reference
    speed (at least one) — so the host's mood does not set the count.
    Then set-up-only passes until ``setup_samples`` set-up times exist,
    then the traced pass.
    """
    untraced: list = []
    timed = 0.0

    def another_rep() -> bool:
        if reps:
            return len(untraced) < reps
        return not untraced or timed < min_seconds

    while another_rep():
        rep = run_rep(name, seed, size, len(untraced))
        untraced.append(rep)
        if "error" not in rep:
            timed += rep["wall_s"]
        elif not reps:
            break            # time-boxed mode: do not loop on a crasher
    good = [r for r in untraced if "error" not in r]
    setup_values = [r["setup_s"] for r in untraced if "setup_s" in r]
    extra = 0
    while good and len(setup_values) < setup_samples:
        rep = run_rep(name, seed, size, len(untraced) + extra,
                      setup_only=True)
        extra += 1
        if "setup_s" not in rep:
            break
        setup_values.append(rep["setup_s"])
    traced_rep = None
    if traced:
        traced_rep = run_rep(name, seed, size, len(untraced) + extra,
                             trace=True)
    return fold_workload(name, untraced, setup_values, traced_rep)


def fold_workload(name: str, untraced: list, setup_values: list,
                  traced_rep) -> dict:
    """Raw reps -> end-to-end stats, per-layer metrics, scored checks."""
    good = [r for r in untraced if "error" not in r]
    every = untraced + ([traced_rep] if traced_rep else [])
    known_checks = max([r["checks_attempted"] for r in every
                        if "error" not in r] or [1])
    attempted = failed = 0
    failures: list = []
    for index, rep in enumerate(every):
        label = "traced rep" if rep is traced_rep else f"rep {index}"
        if "error" in rep:
            # A rep that raised or timed out scores all its checks failed.
            attempted += known_checks
            failed += known_checks
            failures.append(f"{label}: {rep['error'].strip()[-600:]}")
        else:
            attempted += rep["checks_attempted"]
            failed += len(rep["failed_checks"])
            failures += [f"{label}: {c}" for c in rep["failed_checks"]]

    def check(label: str, ok: bool) -> None:
        nonlocal attempted, failed
        attempted += 1
        if not ok:
            failed += 1
            failures.append(label)

    digests = sorted({r["digest"] for r in good})
    if len(good) > 1:
        check("sim digest identical across reps", len(digests) == 1)
        check("sim_headline_s and counts identical across reps",
              len({json.dumps([r["sim_headline_s"], _exact(r["counts"])],
                              sort_keys=True) for r in good}) == 1)
    if traced_rep is not None and "error" not in traced_rep and good:
        check("traced sim digest and counts = untraced",
              traced_rep["digest"] == good[0]["digest"]
              and _exact(traced_rep["counts"]) == _exact(good[0]["counts"]))

    entry: dict = {"reps": untraced, "traced": traced_rep,
                   "digest": digests[0] if len(digests) == 1 else None,
                   "digests": digests,
                   "checks": {"attempted": attempted, "failed": failed,
                              "failures": failures},
                   "e2e": {}, "per_layer": {}, "setup_self_s": {}}
    if good:
        units = {m.name: m.unit for m in spec.END_TO_END}
        entry["e2e"] = {
            "wall_s": _stats([r["wall_s"] for r in good], units["wall_s"]),
            "cpu_s": _stats([r["cpu_s"] for r in good], units["cpu_s"]),
            "setup_s": _stats(setup_values, units["setup_s"]),
            "peak_rss_mb": _stats([r["peak_rss_mb"] for r in good],
                                  units["peak_rss_mb"]),
            "work_per_s": _stats([r["work_units"] / r["wall_s"]
                                  for r in good], units["work_per_s"]),
            "sim_headline_s": _stats([r["sim_headline_s"] for r in good],
                                     units["sim_headline_s"]),
        }
        entry["per_layer"], entry["setup_self_s"] = layer_metrics(
            good, traced_rep)
    # The counts were just checked to be the same on every rep and the
    # span aggregate has been folded: keep the result file small.
    for rep in every:
        for key in ("counts", "spans", "setup_spans"):
            rep.pop(key, None)
    return entry


def _exact(counts: dict) -> dict:
    return {k: v for k, v in counts.items() if k in spec.EXACT_LAYER}


def layer_metrics(good: list, traced_rep) -> tuple:
    """Per-layer metrics of one workload (probes are merged in later),
    and the part of each ``*_self_s`` that was spent in set-up."""
    import tracing
    first = good[0]
    counts = first["counts"]
    out = {name: counts.get(name, 0) for name in spec.EXACT_LAYER}
    rebalances = out["sim.fairshare.rebalances"]
    out["sim.fairshare.visits_per_rebalance"] = (
        out["sim.fairshare.flow_visits"] / rebalances if rebalances else 0.0)
    lookups = out["net.path_cache_hits"] + out["net.path_cache_misses"]
    out["net.path_cache_hit_ratio"] = (
        out["net.path_cache_hits"] / lookups if lookups else 0.0)
    wall = statistics.median(r["wall_s"] for r in good)
    jobs = counts.get("parallel.jobs", 0)
    out["parallel.fleet_peak_rss_mb"] = (
        statistics.median(r["peak_rss_mb"] for r in good) if jobs else 0.0)
    # Median of the per-rep ratios.  (``run`` also derives the
    # cross-workload fuzz_serial / fuzz_sharded ratio.)
    speedup = statistics.median(r["parallel_speedup"] for r in good) \
        if jobs else 0.0
    out["parallel.speedup"] = speedup
    out["parallel.efficiency"] = speedup / jobs if jobs else 0.0
    self_times = {m: 0.0 for m in tracing.SELF_METRICS}
    setup_self_times: dict = {}
    overhead = unattributed = 0.0
    if traced_rep is not None and "error" not in traced_rep:
        spans = traced_rep["spans"]
        # Spans are as measured; the traced rep's own measured ->
        # reference ratio puts them in the unit of ``wall_s``.
        scale = traced_rep["wall_s"] / traced_rep["raw_wall_s"]
        # ``*_self_s`` covers the whole traced rep, set-up included, so
        # that the layers that explain a ``setup_s`` move are attributed.
        setup_self_times = {
            metric: self_s * scale for metric, self_s in
            tracing.layer_self_times(traced_rep["setup_spans"]).items()}
        for metric, self_s in tracing.layer_self_times(spans).items():
            self_times[metric] = self_s * scale + setup_self_times[metric]
        overhead = traced_rep["wall_s"] / wall
        root_self = spans.get("|".join(tracing.ROOT), [0, 0.0])[1]
        unattributed = root_self / traced_rep["raw_wall_s"]
    out.update(self_times)
    out["trace.overhead_ratio"] = overhead
    out["trace.unattributed_share"] = unattributed
    return out, {m: v for m, v in setup_self_times.items() if v}


# -- commands -----------------------------------------------------------------------

def cmd_run_one(args) -> int:
    """The driver contract: one workload, one JSON object on the last line."""
    with BenchLock():
        traced = bool(args.trace)
        entry = measure_workload(
            args.workload, args.seed, "full",
            min_seconds=0.0 if traced else float(args.seconds),
            traced=traced, setup_samples=1 if traced else SETUP_SAMPLES)
        probe_metrics = run_probes(1) if traced else {}
    checks = entry["checks"]
    attempted, failed = checks["attempted"], checks["failed"]
    if traced:
        attempted += 1
        if "error" in probe_metrics:
            failed += 1
            checks["failures"].append("probes: " + probe_metrics["error"])
        values = dict(entry["per_layer"])
        values.update({k: v for k, v in probe_metrics.items()
                       if k in spec.LAYER_BY_NAME})
        metrics = {m.name: {"value": values.get(m.name, 0), "unit": m.unit}
                   for m in spec.PER_LAYER}
    else:
        metrics = {m.name: {"value": entry["e2e"][m.name]["median"],
                            "unit": m.unit}
                   for m in spec.END_TO_END if m.name in entry["e2e"]}
    for failure in checks["failures"]:
        print(f"FAILED {args.workload}: {failure}", file=sys.stderr)
    if not entry["e2e"]:
        return 1          # nothing measured: no result line, non-zero exit
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def cmd_run(args) -> int:
    if args.workload:
        return cmd_run_one(args)
    size = "smoke" if args.smoke else "full"
    doc = {"schema": SCHEMA, "mode": size, "seed": args.seed,
           "reps": args.reps, "env": environment(), "workloads": {},
           "probes": {}, "derived": {}}
    with BenchLock():
        for name in spec.WORKLOAD_NAMES:
            print(f"[{name}] {args.reps} untraced rep(s) + 1 traced",
                  flush=True)
            doc["workloads"][name] = measure_workload(
                name, args.seed, size, reps=args.reps)
        print("[probes]", flush=True)
        doc["probes"] = run_probes(1 if args.smoke else 3)
    serial = doc["workloads"]["fuzz_serial"]
    sharded = doc["workloads"]["fuzz_sharded"]
    if serial["e2e"] and sharded["e2e"]:
        checks = sharded["checks"]
        checks["attempted"] += 1
        if sharded["digest"] is None or \
                sharded["digest"] != serial["digest"]:
            checks["failed"] += 1
            checks["failures"].append("sharded digest = serial digest")
        doc["derived"]["parallel.speedup_vs_serial"] = (
            serial["e2e"]["wall_s"]["median"]
            / sharded["e2e"]["wall_s"]["median"])
    out = args.out or str(WORK / "last_run.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print_report(doc)
    print(f"\nwrote {out}")
    return 0 if all(w["checks"]["failed"] == 0 and w["e2e"]
                    for w in doc["workloads"].values()) \
        and "error" not in doc["probes"] else 1


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.4g}" if abs(value) < 1e6 else f"{value:.6g}"
    return str(value)


def print_report(doc: dict) -> None:
    names = list(doc["workloads"])
    print(f"\n== end to end (seed {doc['seed']}, mode {doc['mode']}, "
          f"{doc['env']['nproc']} cores) ==")
    for name in names:
        entry = doc["workloads"][name]
        checks = entry["checks"]
        share = checks["failed"] / max(1, checks["attempted"])
        slowdowns = [r["host_slowdown"] for r in entry["reps"]
                     if "host_slowdown" in r]
        print(f"\n{name}   digest {entry['digest']}   failed_share "
              f"{share:.3g} ({checks['failed']}/{checks['attempted']})"
              + (f"   host ran at reference speed / "
                 f"{statistics.median(slowdowns):.2f}" if slowdowns else ""))
        for metric in spec.END_TO_END:
            stat = entry["e2e"].get(metric.name)
            if stat is None:
                print(f"  {metric.name:<16} -")
                continue
            print(f"  {metric.name:<16} {_fmt(stat['median']):>10} "
                  f"{metric.unit:<6} [{_fmt(stat['min'])} .. "
                  f"{_fmt(stat['max'])}] n={stat['n']}  "
                  f"({metric.better} is better, bound "
                  f"{metric.bound:.0%})")
        for failure in checks["failures"]:
            print(f"  FAILED: {failure}")
    print("\n== per layer ==")
    width = max(len(m.name) for m in spec.PER_LAYER)
    print(f"{'metric':<{width}} {'unit':<6} "
          + " ".join(f"{n[:12]:>12}" for n in names))
    for metric in spec.PER_LAYER:
        if metric.name in doc["probes"]:
            continue
        row = [doc["workloads"][n]["per_layer"].get(metric.name)
               for n in names]
        print(f"{metric.name:<{width}} {metric.unit:<6} "
              + " ".join(f"{'-' if v is None else _fmt(v):>12}"
                         for v in row))
    print("\n== probes (workload-independent) ==")
    for metric in spec.PER_LAYER:
        if metric.name in doc["probes"]:
            print(f"{metric.name:<{width}} {metric.unit:<6} "
                  f"{_fmt(doc['probes'][metric.name]):>12}")
    if "error" in doc["probes"]:
        print(f"FAILED probes: {doc['probes']['error']}")
    for key, value in doc["derived"].items():
        print(f"{key:<{width}} {'ratio':<6} {_fmt(value):>12}")


def cmd_list(_args) -> int:
    import workloads as W
    print("workloads:")
    for name in spec.WORKLOAD_NAMES:
        wl = W.WORKLOADS[name]
        gated = "*" if name in spec.DRIVER_WORKLOADS else " "
        print(f" {gated}{name:<18} [{wl.work_unit}] {wl.why}")
    print(" * listed in BENCHMARK.json (the driver runs and gates these)")
    print("\nend-to-end metrics (per workload):")
    for m in spec.END_TO_END:
        print(f"  {m.name:<16} {m.unit:<6} {m.better:<6} bound {m.bound:.0%}"
              + ("" if m.same_seed_bound is None else
                 f" ({m.same_seed_bound:.0%} between same-seed results)"))
    print(f"  {'failed_share':<16} {'ratio':<6} {'lower':<6} bound 0 "
          f"(absolute)")
    print("\nper-layer metrics (reported, never scored):")
    for m in spec.PER_LAYER:
        print(f"  {m.name:<48} {m.unit:<6} {m.better}")
    return 0


def cmd_compare(args) -> int:
    import compare
    return compare.main(args.a, args.b)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="bench.py", description=__doc__,
                                     formatter_class=argparse
                                     .RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the benchmark")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--reps", type=int, default=3,
                     help="untraced reps per workload (default 3)")
    run.add_argument("--out", default="", help="result file")
    run.add_argument("--smoke", action="store_true",
                     help="self-test sizes; results refused by compare")
    run.add_argument("--workload", default="", choices=("",)
                     + spec.WORKLOAD_NAMES,
                     help="driver mode: this workload only, JSON result")
    run.add_argument("--seconds", type=int, default=spec.DRIVER_SECONDS,
                     help="driver mode: measure at least this long")
    run.add_argument("--trace", type=int, default=0, choices=(0, 1),
                     help="driver mode: 0 end-to-end, 1 per-layer metrics")
    run.set_defaults(fn=cmd_run)

    cmp_ = sub.add_parser("compare", help="compare two result files")
    cmp_.add_argument("a")
    cmp_.add_argument("b")
    cmp_.set_defaults(fn=cmd_compare)

    sub.add_parser("list", help="print workloads and metrics") \
        .set_defaults(fn=cmd_list)

    rep = sub.add_parser("_rep")            # internal: one rep, this process
    rep.add_argument("--workload", required=True)
    rep.add_argument("--seed", type=int, required=True)
    rep.add_argument("--size", required=True)
    rep.add_argument("--trace", type=int, default=0)
    rep.add_argument("--setup-only", action="store_true")
    rep.add_argument("--out", required=True)
    rep.add_argument("--spawned-at", type=float, required=True)
    rep.set_defaults(fn=child_rep)

    prb = sub.add_parser("_probes")         # internal: the micro-drivers
    prb.add_argument("--repeats", type=int, default=1)
    prb.add_argument("--out", required=True)
    prb.add_argument("--spawned-at", type=float, required=True)
    prb.set_defaults(fn=child_probes)

    args = parser.parse_args(argv)
    if args.command != "compare" and not (SRC / "repro").is_dir():
        print(f"bench: no simulator source at {SRC / 'repro'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
