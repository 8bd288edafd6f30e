"""Observatory lifecycle, read-only guarantee, and the chaos matrix.

The heavyweight checks here mirror the PR's acceptance criteria:

* a detectors-on run leaves the simulated outcome and the fair-share
  engine's deterministic counters bit-identical (it is read-only);
* the chaos detection-matrix experiment detects every fault class with
  the right attribution, zero false positives on the clean run, and a
  digest that is stable for the seed.
"""

import re

import pytest

from repro.config import PlatformConfig
from repro.errors import MonitorError
from repro.experiments import observatory as obs_experiment
from repro.platform import ClusterSpec, VHadoopPlatform
from repro.workloads.wordcount import (lines_as_records, line_record_sizeof,
                                       wordcount_job)

LINES = ["sigma tau upsilon phi chi psi omega"] * 500


def run_wordcount(with_observatory=False):
    platform = VHadoopPlatform(PlatformConfig(n_hosts=2, seed=6))
    cluster = platform.provision_cluster("ro", ClusterSpec.single_host(6))
    platform.upload(cluster, "/in", lines_as_records(LINES),
                    sizeof=line_record_sizeof, timed=False)
    obs = cluster.observatory(interval=2.0).start() if with_observatory \
        else None
    job = wordcount_job("/in", "/out", n_reduces=3)
    report = platform.run_job(cluster, job)
    if obs is not None:
        obs.stop()
    fss = platform.datacenter.fss
    counters = (fss.rebalance_count, fss.flow_visits, fss.completed_count)
    outcome = (repr(report.elapsed), platform.collect(cluster, report),
               counters)
    return outcome, obs


def test_detectors_on_run_is_bit_identical():
    off, _ = run_wordcount()
    on, obs = run_wordcount(with_observatory=True)
    assert on == off
    assert obs.ticks > 0


def test_lifecycle_and_validation():
    platform = VHadoopPlatform(PlatformConfig(n_hosts=2, seed=6))
    cluster = platform.provision_cluster("life", ClusterSpec.single_host(4))
    with pytest.raises(MonitorError):
        cluster.observatory(interval=0.0)
    obs = cluster.observatory(interval=1.0)
    assert not obs.running
    obs.start()
    assert obs.running
    assert obs.start() is obs            # idempotent
    platform.sim.run(until=5.5)
    obs.stop()
    assert not obs.running and obs.ticks >= 5
    ticks = obs.ticks
    platform.sim.run(until=20.0)
    assert obs.ticks == ticks            # a stopped observatory stays quiet
    assert obs.digest() == obs.digest()


DIGEST_RE = re.compile(r"alert digest ([0-9a-f]{16})")


def matrix_digest(result):
    for note in result.notes:
        match = DIGEST_RE.search(note)
        if match:
            return match.group(1)
    raise AssertionError(f"no digest note in {result.notes}")


def test_chaos_matrix_detects_all_faults_with_stable_digest():
    # run() raises on any missed detection, wrong attribution, stray
    # alert, clean-run false positive, or attribution coverage < 90%.
    result = obs_experiment.run(seed=7, quick=True)
    scenarios = [row[0] for row in result.rows]
    assert scenarios == ["clean", *obs_experiment.DETECTION_MATRIX]
    assert all(row[-1] for row in result.rows)
    # Same seed, same matrix, same alert books.
    again = obs_experiment.run(seed=7, quick=True)
    assert matrix_digest(result) == matrix_digest(again)
