"""Pinned deterministic engine counters.

Each case is a fixed seeded run whose simulated timestamps, kernel event
count and fair-share work profile (rebalances, flow visits, fills redone
after a failed certificate, completions) are pinned exactly.  A drift
means the engine's work profile changed; the numbers are then re-pinned
consciously, in the PR that moved them.  The 500-VM rung of the same
ladder is the ``ladder500`` workload of ``benchmarks/e2e``.
"""

from functools import partial

import pytest

from repro import constants as C
from repro.chaos import ChaosInjector
from repro.config import PlatformConfig, TopologySpec
from repro.datasets.text import generate_corpus
from repro.digest import digest
from repro.experiments import chaos_faults
from repro.platform import ClusterSpec, VHadoopPlatform
from repro.workloads.terasort import run_terasort
from repro.workloads.wordcount import (lines_as_records, scaled_line_sizeof,
                                       wordcount_job)

#: Materialize 1/SCALE of the wordcount corpus; simulate the full volume.
SCALE_VOLUME = 400


def ladder_rung(topology, wc_mb, wc_reduces, tera_mb, tera_reduces):
    """One racked scale-ladder rung: a wordcount slice, then a terasort."""
    topo = TopologySpec.parse(topology)
    platform = VHadoopPlatform(PlatformConfig(topology=topo, seed=0))
    cluster = platform.provision_cluster("ladder", ClusterSpec.racked(topo))
    placement = [(vm.name, vm.host.name, vm.host.rack_name)
                 for vm in cluster.vms]
    lines = generate_corpus(wc_mb * C.MB // SCALE_VOLUME,
                            rng=platform.datacenter.rng.fresh("corpus"))
    platform.upload(cluster, "/in", lines_as_records(lines),
                    sizeof=scaled_line_sizeof(SCALE_VOLUME), timed=False)
    wordcount = platform.run_job(
        cluster, wordcount_job("/in", "/out", n_reduces=wc_reduces,
                               volume_scale=SCALE_VOLUME))
    tera = run_terasort(platform.runner(cluster), cluster, tera_mb * C.MB,
                        n_reduces=tera_reduces, seed_tag="ladder")
    assert tera.validated
    return (platform,
            [wordcount.elapsed, tera.generation_time_s + tera.sort_time_s],
            digest(repr(placement)))


def chaos_quick():
    """Quick wordcount under the default fault plan (crash, host loss,
    slow disk)."""
    seed, size_mb = 7, chaos_faults.QUICK_SIZE_MB
    clean_report, _records = chaos_faults._run_clean(seed, size_mb)
    platform, cluster, job = chaos_faults._build(seed, size_mb)
    injector = ChaosInjector(
        cluster, chaos_faults.default_plan(cluster, clean_report.elapsed))
    done = platform.runner(cluster).submit(job)
    injector.start()
    platform.sim.run_until(done)
    return platform, done.value.elapsed, injector.report.digest()


# (sim_elapsed, events_processed, rebalance_count, flow_visits (class
#  inspections by fills), fill_reruns, completed_flows, placement digest |
#  chaos timeline digest)
CASES = [
    pytest.param(
        partial(ladder_rung, "1x2x8", 256, 8, 128, 16),
        ([28.14701783979392, 30.688346325408713],
         3070, 428, 7159, 23, 346, "8c796e032f692e8b"),
        id="ladder-1x2x8"),
    pytest.param(
        partial(ladder_rung, "5x5x4", 640, 16, 256, 32),
        ([80.3379841888345, 111.56917050206876],
         12809, 1400, 77262, 65, 1431, "1799fd802d6bf8b8"),
        id="ladder-5x5x4"),
    pytest.param(
        chaos_quick,
        (24.27680442040166, 687, 58, 195, 1, 63, "3e2aeb91bd3418a6"),
        id="chaos-quick"),
]


@pytest.mark.parametrize("run, pinned", CASES)
def test_engine_counters_are_pinned(run, pinned):
    platform, sim_elapsed, run_digest = run()
    sim, fss = platform.sim, platform.datacenter.fss
    assert (sim_elapsed, sim.events_processed, fss.rebalance_count,
            fss.flow_visits, fss.fill_reruns, fss.completed_count,
            run_digest) == pinned
