"""Ablations of the design decisions DESIGN.md §5 calls out.

Each ablation switches one mechanism off (or to a degenerate setting) and
shows the measured consequence — evidence that the mechanism, not a
coincidence, produces the paper's shapes.
"""

from repro import constants as C
from repro.config import HadoopConfig, HostConfig, PlatformConfig
from repro.platform import ClusterSpec, VHadoopPlatform
from repro.workloads.mrbench import run_mrbench
from repro.workloads.wordcount import (lines_as_records, scaled_line_sizeof,
                                       wordcount_job)
from repro.datasets.text import generate_corpus

SCALE = 100
INPUT_MB = 192


def _run_wordcount(layout="normal", hadoop_config=None, host_config=None,
                   use_combiner=False, seed=0):
    config = PlatformConfig(n_hosts=2, seed=seed,
                            host=host_config or HostConfig())
    platform = VHadoopPlatform(config)
    placement = (ClusterSpec.single_host(16) if layout == "normal"
                 else ClusterSpec.packed(16, hosts=2))
    cluster = platform.provision_cluster("abl", placement,
                                         hadoop_config=hadoop_config)
    lines = generate_corpus(INPUT_MB * C.MB // SCALE,
                            rng=platform.datacenter.rng.fresh("corpus"))
    platform.upload(cluster, "/in", lines_as_records(lines),
                    sizeof=scaled_line_sizeof(SCALE), timed=False)
    job = wordcount_job("/in", "/out", n_reduces=4, volume_scale=SCALE,
                        use_combiner=use_combiner)
    return platform.run_job(cluster, job)


def test_ablation_locality_scheduling():
    """Decision 4: locality-aware map scheduling cuts remote split reads."""
    with_loc = _run_wordcount(
        hadoop_config=HadoopConfig(locality_aware=True))
    without = _run_wordcount(
        hadoop_config=HadoopConfig(locality_aware=False))
    frac_with = with_loc.locality_fractions()
    frac_without = without.locality_fractions()
    print(f"\nlocality on : {frac_with}  elapsed={with_loc.elapsed:.1f}s")
    print(f"locality off: {frac_without}  elapsed={without.elapsed:.1f}s")
    assert frac_with.get("node", 0) >= frac_without.get("node", 0)


def test_ablation_combiner():
    """Combiners collapse the shuffle (the paper's Wordcount has none —
    which is what makes it network-sensitive)."""
    plain = _run_wordcount(use_combiner=False)
    combined = _run_wordcount(use_combiner=True)
    print(f"\nno combiner : shuffle={plain.shuffle_bytes / 1e6:7.1f} MB "
          f"elapsed={plain.elapsed:.1f}s")
    print(f"with combiner: shuffle={combined.shuffle_bytes / 1e6:7.1f} MB "
          f"elapsed={combined.elapsed:.1f}s")
    assert combined.shuffle_bytes < 0.5 * plain.shuffle_bytes


def test_ablation_task_startup_overhead():
    """Decision 5: per-task startup produces the MRBench shape; without it
    tiny jobs barely notice extra tasks."""
    def run_pair(startup):
        config = HadoopConfig(task_startup_s=startup)
        platform = VHadoopPlatform(PlatformConfig(n_hosts=2, seed=0))
        cluster = platform.provision_cluster("mb", ClusterSpec.single_host(16),
                                             hadoop_config=config)
        runner = platform.runner(cluster)
        small = run_mrbench(runner, cluster, n_maps=1, n_reduces=1,
                            run_index=0).elapsed
        large = run_mrbench(runner, cluster, n_maps=6, n_reduces=1,
                            run_index=1).elapsed
        return large - small

    growth_with, growth_without = run_pair(C.TASK_STARTUP_S), run_pair(0.0)
    print(f"\nmap-scaling growth with startup cost:    "
          f"{growth_with:+.2f} s")
    print(f"map-scaling growth without startup cost: "
          f"{growth_without:+.2f} s")
    assert growth_with > growth_without


def test_ablation_netback_bottleneck():
    """Decision 2/3: the Xen netback ceiling is what separates cross-domain
    from normal; with wire-speed netback the gap largely closes."""
    slow = HostConfig()  # default: 40 MB/s netback
    fast = HostConfig(netback_bandwidth=C.GBIT_ETHERNET_BPS)
    gap_slow = (_run_wordcount("cross-domain", host_config=slow).elapsed
                - _run_wordcount("normal", host_config=slow).elapsed)
    gap_fast = (_run_wordcount("cross-domain", host_config=fast).elapsed
                - _run_wordcount("normal", host_config=fast).elapsed)
    print(f"\ncross-domain gap with Xen netback ceiling: {gap_slow:+.1f} s")
    print(f"cross-domain gap at wire-speed netback:    {gap_fast:+.1f} s")
    assert gap_slow > gap_fast


def test_ablation_migration_sequential_vs_concurrent():
    """Gang migration shares the NIC: wall-clock shrinks, per-VM times
    stretch.  Virt-LM migrates one VM after another, as the paper does;
    the gang arm starts every migration at once through the migrator."""
    from repro.config import VMConfig

    def run_mode(concurrent):
        platform = VHadoopPlatform(PlatformConfig(n_hosts=2, seed=1))
        cluster = platform.provision_cluster(
            "m", ClusterSpec.single_host(8), vm_config=VMConfig(memory=512 * C.MiB))
        dc = platform.datacenter
        if not concurrent:
            event = dc.virtlm.migrate_cluster(cluster.vms, dc.machine(1))
            dc.sim.run_until(event)
            return (event.value.overall_migration_time_s,
                    event.value.migration_times)
        started = dc.now
        events = [dc.migrator.migrate(vm, dc.machine(1))
                  for vm in cluster.vms]
        dc.sim.run_until(dc.sim.all_of(events))
        return dc.now - started, [e.value.migration_time_s for e in events]

    (seq_overall, seq_times), (gang_overall, gang_times) = \
        run_mode(False), run_mode(True)
    print(f"\nsequential: overall={seq_overall:.1f}s"
          f" mean-per-vm={sum(seq_times) / 8:.1f}s")
    print(f"gang:       overall={gang_overall:.1f}s"
          f" mean-per-vm={sum(gang_times) / 8:.1f}s")
    assert gang_overall < seq_overall
    assert sum(gang_times) > sum(seq_times)
