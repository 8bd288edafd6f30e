"""Tests for speculative map execution."""

import collections

import pytest

from repro.config import HadoopConfig, PlatformConfig
from repro.errors import ConfigError
from repro.platform import ClusterSpec, VHadoopPlatform
from repro.workloads.wordcount import (WordCountReducer, lines_as_records,
                                       line_record_sizeof,
                                       wordcount_job)
from tests.chaos.test_recovery import run_job

LINES = ["one two three four five"] * 400
RECORDS = lines_as_records(LINES)
EXPECTED = dict(collections.Counter(" ".join(LINES).split()))


def run_with(speculation: bool, straggler: bool = True, seed=31,
             engine: str = "solo"):
    platform = VHadoopPlatform(PlatformConfig(n_hosts=2, seed=seed))
    cluster = platform.provision_cluster(
        "spec", ClusterSpec.single_host(8),
        hadoop_config=HadoopConfig(speculative_execution=speculation,
                                   speculative_slowdown=1.3))
    platform.upload(cluster, "/in", RECORDS, sizeof=line_record_sizeof,
                    timed=False)
    job = wordcount_job("/in", "/out", n_reduces=2)
    # One map per map slot so every worker — including the contended one —
    # runs at least one; give maps real CPU weight so contention shows.
    job.force_num_maps = 2 * len(cluster.workers)
    job.map_cpu_per_record = 0.08
    if straggler:
        # Saturate one worker's VCPU with a big background computation so
        # any map landing there becomes a straggler.
        cluster.workers[0].compute(3000.0)
        cluster.workers[0].compute(3000.0)
    return platform, cluster, run_job(platform, cluster, job, engine)


def test_speculation_config_validation():
    with pytest.raises(ConfigError):
        HadoopConfig(speculative_slowdown=1.0)


def test_output_identical_with_and_without_speculation():
    _p1, _c1, without = run_with(False)
    _p2, _c2, with_spec = run_with(True)
    platform, cluster, report = run_with(True)
    runner = platform.runners[cluster.name]
    assert dict(runner.read_output(report)) == EXPECTED


def test_speculation_launches_backup_for_straggler():
    platform, _cluster, report = run_with(True)
    assert platform.tracer.count("task.map.speculate") >= 1
    # Exactly one result per logical map survived.
    map_ids = [t.task_id for t in report.tasks if t.kind == "map"]
    assert len(map_ids) == len(set(map_ids)) == report.n_maps


def test_speculation_helps_under_contention():
    _p1, _c1, without = run_with(False)
    _p2, _c2, with_spec = run_with(True)
    assert with_spec.elapsed < without.elapsed


def test_no_speculation_without_stragglers():
    platform, _cluster, _report = run_with(True, straggler=False)
    assert platform.tracer.count("task.map.speculate") == 0


# -- reduce-phase speculation -------------------------------------------------

REDUCE_WORDS = [f"w{i:03d}" for i in range(240)]
REDUCE_LINES = [" ".join(REDUCE_WORDS[i:i + 8])
                for i in range(0, 240, 8)] * 10
REDUCE_RECORDS = lines_as_records(REDUCE_LINES)
REDUCE_EXPECTED = dict(collections.Counter(" ".join(REDUCE_LINES).split()))


def run_reduces_with(speculation: bool, straggler: bool = True, seed=37,
                     reducer=None):
    platform = VHadoopPlatform(PlatformConfig(n_hosts=2, seed=seed))
    cluster = platform.provision_cluster(
        "rspec", ClusterSpec.single_host(8),
        hadoop_config=HadoopConfig(speculative_execution=speculation,
                                   speculative_slowdown=1.3))
    platform.upload(cluster, "/rin", REDUCE_RECORDS,
                    sizeof=line_record_sizeof, timed=False)
    # One reduce per reduce slot so every worker — including the contended
    # one — runs one; give reduces real CPU weight so contention shows.
    n_reduces = (cluster.config.reduce_tasks_maximum
                 * len(cluster.workers))
    job = wordcount_job("/rin", "/rout", n_reduces=n_reduces)
    job.reduce_cpu_per_record = 0.08
    if reducer is not None:
        job.reducer = reducer
    if straggler:
        cluster.workers[0].compute(3000.0)
        cluster.workers[0].compute(3000.0)
    report = platform.run_job(cluster, job)
    return platform, cluster, report


def test_reduce_speculation_launches_backup_for_straggler():
    platform, cluster, report = run_reduces_with(True)
    assert platform.tracer.count("task.reduce.speculate") >= 1
    assert report.speculated_reduces >= 1
    # Exactly one surviving attempt per partition.
    reduce_ids = [t.task_id for t in report.tasks if t.kind == "reduce"]
    assert len(reduce_ids) == len(set(reduce_ids)) == report.n_reduces
    runner = platform.runners[cluster.name]
    assert dict(runner.read_output(report)) == REDUCE_EXPECTED


def test_reduce_output_identical_with_and_without_speculation():
    platform1, cluster1, without = run_reduces_with(False)
    platform2, cluster2, with_spec = run_reduces_with(True)
    out_without = platform1.runners[cluster1.name].read_output(without)
    out_with = platform2.runners[cluster2.name].read_output(with_spec)
    assert out_without == out_with
    assert without.speculated_reduces == 0


def test_reduce_speculation_helps_under_contention():
    _p1, _c1, without = run_reduces_with(False)
    _p2, _c2, with_spec = run_reduces_with(True)
    assert with_spec.elapsed < without.elapsed


class CountingReducer(WordCountReducer):
    """Counts every ``reduce`` call, and fails any second call for a key."""

    calls = collections.Counter()

    def reduce(self, key, values, context):
        self.calls[key] += 1
        if self.calls[key] > 1:
            raise RuntimeError(f"{key!r} reduced twice")
        super().reduce(key, values, context)


def test_speculation_loser_never_runs_the_reducer():
    """The attempt that lost the commit race stops at the commit check: it
    runs no user code, so it can neither burn host CPU nor fail."""
    CountingReducer.calls.clear()
    platform, cluster, report = run_reduces_with(True,
                                                 reducer=CountingReducer)
    platform.sim.run()   # let the losing attempts run to their end
    assert report.speculated_reduces >= 1
    attempts = [span for span in platform.tracer.spans
                if span.kind.startswith("task.reduce")]
    losers = [s for s in attempts if s.attrs.get("won") is False]
    assert losers and not any(s.attrs.get("failed") for s in attempts)
    assert set(CountingReducer.calls.values()) == {1}
    assert dict(platform.runners[cluster.name].read_output(report)) \
        == REDUCE_EXPECTED
