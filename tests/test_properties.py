"""Property-based tests (hypothesis) on the core invariants.

* fair-share: work conservation, completion, cap respect;
* MapReduce: cluster output == local reference for arbitrary jobs/data;
* group/partition algebra: no pair lost, partitions disjoint;
* determinism: same seed => same simulated timings.
"""

import collections

import numpy as np
import pytest
from hypothesis import given, settings, HealthCheck
from hypothesis import strategies as st

from repro.config import PlatformConfig
from repro.mapreduce import LocalJobRunner, stable_hash
from repro.mapreduce.api import HashPartitioner, group_by_key
from repro.platform import ClusterSpec, VHadoopPlatform
from repro.sim import FairShareSystem, SharedResource, Simulator
from repro.workloads.wordcount import (lines_as_records, line_record_sizeof,
                                       wordcount_job)

_SLOW = dict(deadline=None,
             suppress_health_check=[HealthCheck.too_slow,
                                    HealthCheck.data_too_large])


# --- fair-share properties ----------------------------------------------------

@settings(max_examples=40, **_SLOW)
@given(st.lists(st.floats(1.0, 1e4), min_size=1, max_size=12),
       st.floats(1.0, 1e3))
def test_fairshare_all_flows_complete_and_conserve(sizes, capacity):
    sim = Simulator()
    fss = FairShareSystem(sim)
    link = SharedResource("link", capacity)
    flows = [fss.open([link], size=s) for s in sizes]
    sim.run()
    assert all(f.end_time is not None for f in flows)
    # Single saturated link, all flows start together: finish time of the
    # last flow equals total work / capacity (work conservation).
    assert max(f.end_time for f in flows) == pytest.approx(
        sum(sizes) / capacity, rel=1e-6)


@settings(max_examples=40, **_SLOW)
@given(st.lists(st.tuples(st.floats(1.0, 1e4), st.floats(0.1, 50.0)),
                min_size=1, max_size=10))
def test_fairshare_caps_never_exceeded(flows_spec):
    sim = Simulator()
    fss = FairShareSystem(sim)
    link = SharedResource("link", 100.0)
    flows = [fss.open([link], size=s, cap=c) for s, c in flows_spec]
    fss.settle()
    # After the initial rebalance, every rate respects its cap and the link.
    assert 0.0 < sum(f.rate for f in flows) <= 100.0 + 1e-6
    for flow, (_s, cap) in zip(flows, flows_spec):
        assert flow.rate <= cap + 1e-9
    sim.run()
    for flow, (size, cap) in zip(flows, flows_spec):
        # A capped flow can never finish faster than size/cap.
        assert flow.end_time >= size / cap - 1e-6


@settings(max_examples=30, **_SLOW)
@given(st.lists(st.floats(1.0, 1e3), min_size=2, max_size=8))
def test_fairshare_equal_flows_finish_together(sizes):
    sim = Simulator()
    fss = FairShareSystem(sim)
    link = SharedResource("link", 10.0)
    size = sizes[0]
    flows = [fss.open([link], size=size) for _ in sizes]
    sim.run()
    ends = {round(f.end_time, 9) for f in flows}
    assert len(ends) == 1


# --- grouping / partitioning algebra ----------------------------------------------

@settings(max_examples=60, **_SLOW)
@given(st.lists(st.tuples(st.text(max_size=6), st.integers(-5, 5)),
                max_size=60))
def test_group_by_key_loses_nothing(pairs):
    grouped = group_by_key(pairs)
    regenerated = [(k, v) for k, values in grouped for v in values]
    assert collections.Counter(regenerated) == collections.Counter(pairs)
    keys = [k for k, _ in grouped]
    assert len(keys) == len(set(keys))


@settings(max_examples=60, **_SLOW)
@given(st.lists(st.text(min_size=1, max_size=10), min_size=1, max_size=50),
       st.integers(1, 9))
def test_hash_partitioner_total_and_disjoint(keys, n):
    p = HashPartitioner()
    partitions = [p.partition(k, n) for k in keys]
    assert all(0 <= i < n for i in partitions)
    # Deterministic: same key always lands in the same partition.
    assert partitions == [p.partition(k, n) for k in keys]


@settings(max_examples=100, **_SLOW)
@given(st.one_of(st.text(), st.integers(), st.binary(),
                 st.tuples(st.integers(), st.text())))
def test_stable_hash_stable(value):
    assert stable_hash(value) == stable_hash(value)
    assert stable_hash(value) >= 0


# --- functional equivalence: cluster == local -----------------------------------

@settings(max_examples=10, **_SLOW)
@given(st.lists(st.text(alphabet="abcd ", min_size=1, max_size=30),
                min_size=1, max_size=30),
       st.integers(1, 5))
def test_cluster_wordcount_equals_local(lines, n_reduces):
    records = lines_as_records(lines)
    job = wordcount_job("/in", "/out", n_reduces=n_reduces)
    local = sorted(LocalJobRunner().run(job, records))

    platform = VHadoopPlatform(PlatformConfig(n_hosts=2, seed=0))
    cluster = platform.provision_cluster("p", ClusterSpec.single_host(5))
    platform.upload(cluster, "/in", records, sizeof=line_record_sizeof,
                    timed=False)
    report = platform.run_job(cluster, job)
    assert sorted(platform.collect(cluster, report)) == local


# --- determinism -----------------------------------------------------------------

def _run_once(seed):
    platform = VHadoopPlatform(PlatformConfig(n_hosts=2, seed=seed))
    cluster = platform.provision_cluster("d", ClusterSpec.single_host(8))
    lines = ["alpha beta gamma delta"] * 500
    platform.upload(cluster, "/in", lines_as_records(lines),
                    sizeof=lambda r: (len(r[1]) + 1) * 100, timed=False)
    report = platform.run_job(
        cluster, wordcount_job("/in", "/out", n_reduces=3, volume_scale=100))
    return report.elapsed


def test_same_seed_same_timing():
    assert _run_once(7) == _run_once(7)


def test_different_seed_different_timing():
    assert _run_once(7) != _run_once(8)


# --- dataset properties -------------------------------------------------------------

@settings(max_examples=10, **_SLOW)
@given(st.integers(1, 20), st.integers(10, 80))
def test_control_chart_values_bounded(n_per_class, length):
    from repro.datasets import generate_synthetic_control
    X, labels = generate_synthetic_control(
        n_per_class=n_per_class, length=length,
        rng=np.random.default_rng(0))
    assert X.shape == (6 * n_per_class, length)
    # All formulas stay within a loose physical envelope.
    assert np.isfinite(X).all()
    assert X.min() > 30 - 6 - 20 - 0.5 * length - 15 - 1
    assert X.max() < 30 + 6 + 20 + 0.5 * length + 15 + 1
