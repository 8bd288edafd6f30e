"""Fig. 5 + Table II — live migration of the 16-node hadoop virtual cluster.

Four conditions: {idle, running Wordcount} x {512 MB, 1024 MB} VM memory.
The whole cluster migrates from one physical machine to the other,
sequentially (one ``xm migrate`` at a time, as the per-node bars of Fig. 5
imply).

Paper shapes to hold:

* larger memory => longer migration time; downtime uncorrelated with memory;
* Wordcount migration time ≈ 3x idle (the job's traffic contends with the
  migration stream); Wordcount downtime ≈ 13x idle (dirty-rate blow-up);
* per-node downtimes vary widely under Wordcount, uniformly small when idle.
"""

from __future__ import annotations

from repro import constants as C
from repro.config import VMConfig
from repro.datasets.text import generate_corpus
from repro.experiments.common import (ExperimentResult, make_platform,
                                      sixteen_node_cluster)
from repro.virt.virtlm import ClusterMigrationReport
from repro.workloads.wordcount import (lines_as_records, scaled_line_sizeof,
                                       wordcount_job)

#: Wordcount input used to load the cluster during migration (simulated MB).
LOAD_INPUT_MB = 1024
VOLUME_SCALE = 400

CONDITIONS = (
    ("idle", 1024 * C.MiB),
    ("idle", 512 * C.MiB),
    ("wordcount", 1024 * C.MiB),
    ("wordcount", 512 * C.MiB),
)


def migrate_cluster_under(condition: str, memory: int, seed: int = 0
                          ) -> ClusterMigrationReport:
    """Provision 16 VMs on pm0, (optionally) start Wordcount, migrate all
    to pm1, and return the Virt-LM report."""
    platform = make_platform(seed=seed)
    cluster = sixteen_node_cluster(platform, "normal",
                                   vm_config=VMConfig(memory=memory))
    dc = platform.datacenter
    load_state = {"stop": False}
    if condition == "wordcount":
        lines = generate_corpus(LOAD_INPUT_MB * C.MB // VOLUME_SCALE,
                                rng=dc.rng.fresh("datasets/corpus"))
        platform.upload(cluster, "/wc/input", lines_as_records(lines),
                        sizeof=scaled_line_sizeof(VOLUME_SCALE), timed=False)
        runner = platform.runners[cluster.name]
        # One job definition, resubmitted: every run is charged in full,
        # but only the first executes the user code over each split.
        wordcount = wordcount_job("/wc/input", "/wc/output", n_reduces=8,
                                  volume_scale=VOLUME_SCALE)

        def load_loop(stream):
            # The cluster runs Wordcount for the whole migration: as each
            # job finishes, the next one is submitted (the paper migrates a
            # cluster that is actively "running Wordcount").  Several
            # overlapping streams keep every node busy, as a saturating
            # Wordcount run does.
            index = 0
            while not load_state["stop"]:
                yield runner.submit(wordcount.resubmit_to(
                    f"/wc/output-{stream}-{index}"))
                index += 1

        for stream in range(3):
            dc.sim.process(load_loop(stream),
                           name=f"wordcount-load-{stream}")
        # Let the job reach steady state before migration begins.
        dc.run(until=dc.now + 20.0)

    label = f"{condition}.{memory // C.MiB}MB"
    event = dc.virtlm.migrate_cluster(cluster.vms, dc.machine(1), label=label)
    while not event.triggered:
        dc.sim.run(until=dc.now + 200.0)
        if dc.sim.peek() == float("inf"):
            break
    assert event.triggered, f"cluster migration {label} did not finish"
    report: ClusterMigrationReport = event.value
    load_state["stop"] = True
    dc.sim.run()  # drain the last Wordcount job
    return report


def run_per_node(seed: int = 0) -> ExperimentResult:
    """Fig. 5: per-node migration time and downtime for each condition."""
    result = ExperimentResult(
        experiment_id="fig5",
        title="Per-node migration time / downtime of the 16-node cluster",
        columns=("condition", "node", "migration_time_s", "downtime_ms"))
    for condition, memory in CONDITIONS:
        report = migrate_cluster_under(condition, memory, seed=seed)
        label = f"{condition}.{memory // C.MiB}MB"
        for record in report.records:
            result.add(label, record.vm, record.migration_time_s,
                       record.downtime_s * 1000.0)
    result.note("downtime varies widely across nodes only under wordcount")
    return result


def run_table2(seed: int = 0) -> ExperimentResult:
    """Table II: overall migration time (s) and overall downtime (ms)."""
    result = ExperimentResult(
        experiment_id="table2",
        title="Overall migration time and downtime of 16-node hadoop "
              "virtual cluster",
        columns=("condition", "overall_migration_time_s",
                 "overall_downtime_ms"))
    reports: dict[str, ClusterMigrationReport] = {}
    for condition, memory in CONDITIONS:
        label = f"{condition}.{memory // C.MiB}MB"
        report = migrate_cluster_under(condition, memory, seed=seed)
        reports[label] = report
        result.add(label, report.overall_migration_time_s,
                   report.overall_downtime_s * 1000.0)
    idle = reports["idle.1024MB"]
    busy = reports["wordcount.1024MB"]
    result.note(f"wordcount/idle migration-time ratio: "
                f"{busy.overall_migration_time_s / idle.overall_migration_time_s:.1f}x "
                f"(paper: ~3x)")
    result.note(f"wordcount/idle downtime ratio: "
                f"{busy.overall_downtime_s / idle.overall_downtime_s:.1f}x "
                f"(paper: ~13x)")
    result.note(f"wordcount downtime spread (max/min): "
                f"{busy.downtime_spread():.1f}x vs idle "
                f"{idle.downtime_spread():.1f}x")
    return result
