"""Observatory — chaos-validated anomaly detection and attribution.

Adversarial validation of :mod:`repro.observatory`: the same seeded
Wordcount runs once clean (the detectors must stay silent and the
flow-level attribution must explain the critical path) and once per
chaos fault class (the matching SLO alert must fire, with the right
attribution, and nothing else may).  The alert book carries a content
digest, so two same-seed runs of this experiment must print the same
``alert digest`` line — CI asserts exactly that.

The detection matrix::

    fault          expected alert      attribution
    -------------  ------------------  -----------
    vm.crash       node-down           node
    host.crash     host-down           node
    net.degrade    degraded-link       network
    net.partition  partitioned-link    network
    disk.slow      slow-disk           disk
"""

from __future__ import annotations

from repro import constants as C
from repro.chaos import ChaosInjector, Fault, FaultPlan
from repro.datasets.text import generate_corpus
from repro.digest import digest
from repro.experiments.common import (ExperimentResult, make_platform,
                                      sixteen_node_cluster)
from repro.workloads.wordcount import (lines_as_records, scaled_line_sizeof,
                                       wordcount_job)

#: Materialize 1/SCALE of the corpus; simulate the full byte volume.
VOLUME_SCALE = 100
#: The matrix needs several map tasks so the slow-disk victim has healthy
#: peers to be compared against — always run the full input size.
SIZE_MB = 256
#: Minimum fraction of the critical path the per-job attribution must
#: explain on the clean run.
MIN_COVERAGE = 0.90
#: Detector tick period — finer than the default so short fault windows
#: always contain whole evidence windows.
TICK_S = 2.0

#: fault kind -> (expected alert slo, expected attribution)
DETECTION_MATRIX = {
    "vm.crash": ("node-down", "node"),
    "host.crash": ("host-down", "node"),
    "net.degrade": ("degraded-link", "network"),
    "net.partition": ("partitioned-link", "network"),
    "disk.slow": ("slow-disk", "disk"),
}

#: Alert kinds that are legitimate side effects of a fault rather than
#: false positives (a host crash is also eight node crashes; any crash
#: leaves blocks under-replicated until the repair sweep catches up).
_SIDE_EFFECTS = {
    "vm.crash": {"under-replicated"},
    "host.crash": {"node-down", "under-replicated"},
    "net.degrade": set(),
    "net.partition": {"degraded-link"},
    "disk.slow": set(),
}


def _build(seed: int):
    platform = make_platform(seed=seed, trace=True)
    cluster = sixteen_node_cluster(platform, "cross-domain")
    lines = generate_corpus(
        SIZE_MB * C.MB // VOLUME_SCALE,
        rng=platform.datacenter.rng.fresh("datasets/corpus"))
    platform.upload(cluster, "/wc/input", lines_as_records(lines),
                    sizeof=scaled_line_sizeof(VOLUME_SCALE), timed=False)
    job = wordcount_job("/wc/input", "/wc/output", n_reduces=4,
                        volume_scale=VOLUME_SCALE)
    return platform, cluster, job


def _disk_victim(clean_report) -> str:
    """The tracker that moved the most map input in the clean run — a
    disk fault there is guaranteed to sit on the job's busiest read
    path (the seeded schedule repeats, so the same tracker is busy in
    the fault run too)."""
    read = {}
    for t in clean_report.tasks:
        if t.kind == "map":
            read[t.tracker] = read.get(t.tracker, 0.0) + t.input_bytes
    return max(sorted(read), key=lambda name: read[name])


def fault_plan(cluster, kind: str, clean_report) -> FaultPlan:
    """One single-fault plan per matrix row, timed as fractions of the
    clean runtime so the fault lands (and heals) while the job runs."""
    clean_elapsed = clean_report.elapsed
    plan = FaultPlan(name=f"observatory-{kind}")
    first_host = cluster.datacenter.machines[0].name
    last_host = cluster.datacenter.machines[-1].name
    if kind == "vm.crash":
        victim = next(vm for vm in cluster.workers
                      if vm.host is not None and vm.host.name != last_host)
        plan.add(Fault(at=0.20 * clean_elapsed, kind=kind,
                       target=victim.name, duration=0.40 * clean_elapsed))
    elif kind == "host.crash":
        plan.add(Fault(at=0.30 * clean_elapsed, kind=kind,
                       target=last_host))
    elif kind == "net.degrade":
        plan.add(Fault(at=0.15 * clean_elapsed, kind=kind,
                       target=first_host, factor=16.0,
                       duration=0.60 * clean_elapsed))
    elif kind == "net.partition":
        plan.add(Fault(at=0.20 * clean_elapsed, kind=kind,
                       target=first_host, duration=0.40 * clean_elapsed))
    elif kind == "disk.slow":
        plan.add(Fault(at=0.10 * clean_elapsed, kind=kind,
                       target=_disk_victim(clean_report), factor=32.0,
                       duration=0.60 * clean_elapsed))
    else:
        raise ValueError(f"no plan for fault kind {kind!r}")
    return plan


def _run_clean(seed: int):
    """Clean baseline: detectors on, zero alerts allowed, attribution
    must explain at least MIN_COVERAGE of the critical path."""
    platform, cluster, job = _build(seed)
    obs = cluster.observatory(interval=TICK_S).start()
    runner = platform.runner(cluster)
    report = runner.run_to_completion(job)
    obs.stop()
    if obs.alerts():
        raise AssertionError(
            f"false positives on the clean run: "
            f"{[a.describe() for a in obs.alerts()]}")
    attribution = obs.attribution(job.name)
    if attribution.coverage < MIN_COVERAGE:
        raise AssertionError(
            f"attribution covers only {attribution.coverage:.0%} of the "
            f"critical path (need >= {MIN_COVERAGE:.0%})")
    return report, attribution, obs.digest()


def _run_fault(seed: int, kind: str, clean_report):
    """One fault-injected run; returns the alert book digest and alerts."""
    platform, cluster, job = _build(seed)
    obs = cluster.observatory(interval=TICK_S).start()
    runner = platform.runner(cluster)
    plan = fault_plan(cluster, kind, clean_report)
    done = runner.submit(job)
    injector = ChaosInjector(cluster, plan)
    injector.start()
    platform.sim.run_until(done)
    obs.stop()
    return done.value, obs.alerts(), obs.digest()


def _check_matrix_row(kind: str, alerts) -> None:
    expected_slo, expected_attr = DETECTION_MATRIX[kind]
    hits = [a for a in alerts if a.slo == expected_slo]
    if not hits:
        raise AssertionError(
            f"{kind}: expected a {expected_slo!r} alert, got "
            f"{sorted({a.slo for a in alerts})}")
    bad_attr = [a for a in hits if a.attribution != expected_attr]
    if bad_attr:
        raise AssertionError(
            f"{kind}: {expected_slo!r} attributed "
            f"{bad_attr[0].attribution!r}, expected {expected_attr!r}")
    allowed = {expected_slo} | _SIDE_EFFECTS[kind]
    strays = sorted({a.slo for a in alerts} - allowed)
    if strays:
        raise AssertionError(
            f"{kind}: unexpected alert kinds {strays} "
            f"(allowed: {sorted(allowed)})")


def run(seed: int = 0, quick: bool = False) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="observatory",
        title="Online anomaly detection vs the chaos fault matrix "
              "(one Wordcount per fault class)",
        columns=("scenario", "elapsed_s", "alerts", "expected",
                 "detected"))

    clean_report, attribution, clean_digest = _run_clean(seed)
    result.add("clean", clean_report.elapsed, 0, "-", True)
    result.note(f"clean attribution: {attribution.coverage:.0%} of the "
                f"critical path explained, dominant class "
                f"{attribution.dominant!r}")

    digests = [clean_digest]
    for kind in DETECTION_MATRIX:
        report, alerts, book_digest = _run_fault(seed, kind, clean_report)
        _check_matrix_row(kind, alerts)
        expected_slo, _ = DETECTION_MATRIX[kind]
        result.add(kind, report.elapsed, len(alerts), expected_slo, True)
        digests.append(book_digest)

    # Same seed, same fault, same alert book — detector determinism.
    if not quick:
        _report2, _alerts2, digest2 = _run_fault(
            seed, "vm.crash", clean_report)
        if digest2 != digests[1]:
            raise AssertionError(
                "alert book is not deterministic for the seed: "
                f"{digest2} != {digests[1]}")

    result.note(f"alert digest {digest('|'.join(digests))} "
                "(clean + 5 fault classes, stable for the seed)")
    return result
