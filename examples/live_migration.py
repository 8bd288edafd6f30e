"""Live migration of a hadoop virtual cluster (paper Section III-C).

Provisions a 16-node cluster on physical machine pm0, starts a Wordcount
workload, then live-migrates the entire cluster to pm1 with Virt-LM,
reporting per-node migration time and downtime — the measurements behind
Fig. 5 and Table II.

Run:  python examples/live_migration.py
"""

from repro import ClusterSpec, PlatformConfig, VHadoopPlatform
from repro.datasets.text import generate_corpus
from repro.workloads.wordcount import (lines_as_records, scaled_line_sizeof,
                                       wordcount_job)


def migrate(condition: str) -> None:
    platform = VHadoopPlatform(PlatformConfig(n_hosts=2, seed=5))
    cluster = platform.provision_cluster(f"mig-{condition}",
                                         ClusterSpec.single_host(16))
    dc = platform.datacenter

    stop_load = {"flag": False}
    if condition == "wordcount":
        scale = 400
        lines = generate_corpus(512_000_000 // scale,
                                rng=dc.rng.stream("corpus"))
        platform.upload(cluster, "/wc/in", lines_as_records(lines),
                        sizeof=scaled_line_sizeof(scale), timed=False)
        runner = platform.runners[cluster.name]
        wordcount = wordcount_job("/wc/in", "/wc/out", n_reduces=8,
                                  volume_scale=scale)

        def load(stream):
            # Keep Wordcount running for the entire migration window by
            # resubmitting as each job finishes (every run is charged in
            # full; the user code runs once per split).
            index = 0
            while not stop_load["flag"]:
                yield runner.submit(wordcount.resubmit_to(
                    f"/wc/out-{stream}-{index}"))
                index += 1

        for stream in range(3):
            dc.sim.process(load(stream), name=f"load-{stream}")
        dc.run(until=dc.now + 15.0)  # let the jobs reach steady state

    event = dc.virtlm.migrate_cluster(cluster.vms, dc.machine(1),
                                      label=condition)
    dc.sim.run_until(event)
    report = event.value
    stop_load["flag"] = True
    dc.sim.run()  # drain the in-flight Wordcount jobs

    print(f"\n=== whole-cluster migration, {condition} ===")
    print(f"{'node':<16s} {'migration time':>14s} {'downtime':>12s} "
          f"{'rounds':>6s} {'reason':>14s}")
    for record in report.records:
        print(f"{record.vm:<16s} {record.migration_time_s:>12.1f} s "
              f"{record.downtime_s * 1000:>9.1f} ms {record.n_rounds:>6d} "
              f"{record.stop_reason:>14s}")
    print(f"overall migration time: {report.overall_migration_time_s:.1f} s")
    print(f"overall downtime:       {report.overall_downtime_s * 1000:.0f} ms")
    print(f"downtime spread:        {report.downtime_spread():.1f}x")


if __name__ == "__main__":
    migrate("idle")
    migrate("wordcount")
