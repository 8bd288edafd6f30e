"""Property: counters are exact under retries, speculation, and chaos.

However task attempts are killed, retried, speculatively duplicated, or
preempted, the job counters must equal those of an undisturbed run —
recovery must never double-count (re-run map attempts merge with
``count=False``; the reduce commit token guarantees exactly one attempt
per partition counts).  The undisturbed run itself is anchored against
the pure-functional :class:`LocalJobRunner` ground truth.
"""

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.chaos import ChaosInjector, Fault, FaultPlan
from repro.config import HadoopConfig, PlatformConfig
from repro.mapreduce import LocalJobRunner
from repro.platform import ClusterSpec, VHadoopPlatform
from repro.workloads.wordcount import (line_record_sizeof, lines_as_records,
                                       wordcount_job)
from tests.chaos.test_recovery import ENGINES, run_job

LINES = ["alef bet gimel dalet he vav", "bet gimel dalet",
         "alef zayin het tet vav vav"] * 40
RECORDS = lines_as_records(LINES)

_SLOW = dict(deadline=None,
             suppress_health_check=[HealthCheck.too_slow])

#: Clean-run baseline, computed once: (elapsed, "job" counter group).
_BASELINE = None


def _job():
    return wordcount_job("/in", "/out", n_reduces=2)


def _make(seed: int, speculation: bool):
    platform = VHadoopPlatform(PlatformConfig(n_hosts=2, seed=seed,
                                              trace=True))
    cluster = platform.provision_cluster(
        "prop", ClusterSpec.packed(8, hosts=2),
        hadoop_config=HadoopConfig(dfs_replication=2,
                                   speculative_execution=speculation))
    platform.upload(cluster, "/in", RECORDS, sizeof=line_record_sizeof,
                    timed=False)
    return platform, cluster


def _baseline():
    global _BASELINE
    if _BASELINE is None:
        platform, cluster = _make(seed=0, speculation=False)
        report = platform.run_job(cluster, _job())
        _BASELINE = (report.elapsed,
                     dict(report.counters.as_dict()["job"]))
    return _BASELINE


def test_baseline_counters_match_local_runner():
    """The undisturbed simulated run agrees with the functional
    reference on every counter the LocalJobRunner maintains."""
    local = LocalJobRunner()
    local.run(_job(), RECORDS)
    _elapsed, counters = _baseline()
    assert counters["map_input_records"] == len(RECORDS)
    assert counters["map_output_records"] == local.counters.get(
        "job", "map_output_records")
    assert counters["reduce_output_records"] == local.counters.get(
        "job", "reduce_output_records")


@settings(max_examples=6, **_SLOW)
@given(seed=st.integers(0, 2**16), fraction=st.floats(0.05, 0.95),
       speculation=st.booleans(), engine=st.sampled_from(ENGINES))
def test_counters_exact_under_chaos(seed, fraction, speculation, engine):
    elapsed, expected = _baseline()
    platform, cluster = _make(seed, speculation)
    victim = cluster.workers[seed % len(cluster.workers)]
    plan = FaultPlan(name="prop").add(
        Fault(at=fraction * elapsed, kind="vm.crash", target=victim.name))
    ChaosInjector(cluster, plan).start()
    report = run_job(platform, cluster, _job(), engine)
    assert dict(report.counters.as_dict()["job"]) == expected


@settings(max_examples=4, **_SLOW)
@given(seed=st.integers(0, 2**16))
def test_counters_exact_with_speculation_clean(seed):
    _elapsed, expected = _baseline()
    platform, cluster = _make(seed, speculation=True)
    report = platform.run_job(cluster, _job())
    assert dict(report.counters.as_dict()["job"]) == expected
