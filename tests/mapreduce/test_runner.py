"""Integration tests for the timed cluster MapReduce runner."""

import collections
import dataclasses

import pytest

from repro import constants as C
from repro.config import HadoopConfig, PlatformConfig
from repro.errors import JobConfigError, TaskFailure
from repro.mapreduce import (HashPartitioner, Job, LocalJobRunner, Mapper,
                             Reducer)
from repro.platform import ClusterSpec, VHadoopPlatform
from repro.workloads.wordcount import (lines_as_records, line_record_sizeof,
                                       wordcount_job)

LINES = ["the quick brown fox", "jumps over the lazy dog",
         "the dog barks", "quick quick fox"] * 5
RECORDS = lines_as_records(LINES)


def make_cluster(n=8, layout="normal", seed=11, hadoop_config=None):
    platform = VHadoopPlatform(PlatformConfig(n_hosts=2, seed=seed))
    placement = (ClusterSpec.single_host(n) if layout == "normal"
                 else ClusterSpec.packed(n, hosts=2))
    cluster = platform.provision_cluster("t", placement,
                                         hadoop_config=hadoop_config)
    return platform, cluster


def upload_corpus(platform, cluster, path="/wc/in"):
    platform.upload(cluster, path, RECORDS, sizeof=line_record_sizeof,
                    timed=False)


def test_wordcount_output_matches_python_counter():
    platform, cluster = make_cluster()
    upload_corpus(platform, cluster)
    job = wordcount_job("/wc/in", "/wc/out", n_reduces=3)
    report = platform.run_job(cluster, job)
    output = dict(platform.collect(cluster, report))
    expected = collections.Counter(" ".join(LINES).split())
    assert output == dict(expected)


def test_cluster_equals_local_runner():
    platform, cluster = make_cluster()
    upload_corpus(platform, cluster)
    job = wordcount_job("/wc/in", "/wc/out", n_reduces=4)
    report = platform.run_job(cluster, job)
    cluster_out = sorted(platform.collect(cluster, report))
    local_out = sorted(LocalJobRunner().run(job, RECORDS))
    assert cluster_out == local_out


def test_report_phases_and_counts():
    platform, cluster = make_cluster()
    upload_corpus(platform, cluster)
    job = wordcount_job("/wc/in", "/wc/out", n_reduces=2)
    report = platform.run_job(cluster, job)
    assert report.elapsed > 0
    assert report.n_maps >= 1
    assert report.n_reduces == 2
    assert 0 < report.map_phase_s < report.elapsed
    assert report.shuffle_bytes > 0
    assert len(report.output_paths) == 2
    maps = [t for t in report.tasks if t.kind == "map"]
    reduces = [t for t in report.tasks if t.kind == "reduce"]
    assert len(maps) == report.n_maps
    assert len(reduces) == 2
    assert all(t.end > t.start for t in report.tasks)


def test_counters_aggregated():
    platform, cluster = make_cluster()
    upload_corpus(platform, cluster)
    job = wordcount_job("/wc/in", "/wc/out", n_reduces=1)
    report = platform.run_job(cluster, job)
    total_words = sum(collections.Counter(" ".join(LINES).split()).values())
    assert report.counters.get("job", "map_output_records") == total_words
    assert report.counters.get("job", "map_input_records") == len(RECORDS)


def test_map_only_job_writes_parts():
    platform, cluster = make_cluster()
    upload_corpus(platform, cluster)
    job = Job(name="identity", input_paths=["/wc/in"], output_path="/id",
              mapper=Mapper, n_reduces=0)
    report = platform.run_job(cluster, job)
    assert report.output_paths
    out = platform.collect(cluster, report)
    assert sorted(out) == sorted(RECORDS)


def test_force_num_maps_splits_records():
    platform, cluster = make_cluster()
    upload_corpus(platform, cluster)
    job = wordcount_job("/wc/in", "/wc/out", n_reduces=1)
    job.force_num_maps = 5
    report = platform.run_job(cluster, job)
    assert report.n_maps == 5
    output = dict(platform.collect(cluster, report))
    assert output == dict(collections.Counter(" ".join(LINES).split()))


def test_locality_aware_scheduling_mostly_local():
    config = HadoopConfig(dfs_block_size=1 * C.MiB)
    platform, cluster = make_cluster(n=8, hadoop_config=config)
    big = lines_as_records(["word " * 200] * 2000)
    platform.upload(cluster, "/big", big, sizeof=line_record_sizeof,
                    timed=False)
    job = wordcount_job("/big", "/out", n_reduces=2)
    report = platform.run_job(cluster, job)
    fractions = report.locality_fractions()
    assert fractions.get("node", 0.0) + fractions.get("host", 0.0) > 0.5


def test_task_failure_propagates():
    class Exploding(Mapper):
        def map(self, key, value, context):
            raise RuntimeError("boom")

    platform, cluster = make_cluster()
    upload_corpus(platform, cluster)
    job = Job(name="bad", input_paths=["/wc/in"], output_path="/bad",
              mapper=Exploding, n_reduces=0)
    event = platform.runners[cluster.name].submit(job)
    with pytest.raises(TaskFailure) as failure:
        platform.sim.run()
        _ = event.value
    # One TaskFailure, naming its task once, caused by the user's error.
    exc = failure.value
    assert str(exc) == f"task {exc.task_id} failed: RuntimeError('boom')"
    assert type(exc.cause) is RuntimeError


class _RaisingPartitioner(HashPartitioner):
    def partition(self, key, n_partitions):
        raise ValueError("bad partitioner")


class _RaisingCombiner(Reducer):
    def reduce(self, key, values, context):
        raise ValueError("bad combiner")


def _raising_sizeof(pair):
    raise ValueError("bad sizeof")


@pytest.mark.parametrize("change", [
    {"partitioner": _RaisingPartitioner()},
    {"combiner": _RaisingCombiner},
    {"intermediate_sizeof": _raising_sizeof},
], ids=["partitioner", "combiner", "intermediate_sizeof"])
def test_map_side_user_code_failure_is_a_retried_task_failure(change):
    platform, cluster = make_cluster()
    upload_corpus(platform, cluster)
    job = dataclasses.replace(wordcount_job("/wc/in", "/wc/first",
                                            n_reduces=2), **change)
    job = job.resubmit_to("/wc/out")  # a copy that memoises what succeeds
    with pytest.raises(TaskFailure) as failure:
        platform.run_job(cluster, job)
    exc = failure.value
    assert type(exc.cause) is ValueError and str(exc.cause).startswith("bad")
    assert str(exc).count(exc.task_id) == 1  # one TaskFailure, not two
    retries = platform.telemetry.metrics.sum("recovery.task.retries")
    assert retries >= cluster.config.max_task_retries
    assert job._memo == {}  # a failure is never memoised


def test_task_failure_on_a_lone_blacklisted_tracker_fails_the_job():
    # One worker: it is blacklisted after three failed attempts, before
    # the task's retry budget runs out.  The retry must fail the job, not
    # sit pending forever with no worker left to take it.
    class Exploding(Mapper):
        def map(self, key, value, context):
            raise RuntimeError("boom")

    platform, cluster = make_cluster(n=2)
    upload_corpus(platform, cluster)
    job = Job(name="bad", input_paths=["/wc/in"], output_path="/bad",
              mapper=Exploding, n_reduces=0)
    event = platform.runners[cluster.name].submit(job)
    with pytest.raises(TaskFailure, match="blacklisted"):
        platform.sim.run()
    assert event.triggered and not event.ok


def test_missing_input_raises():
    platform, cluster = make_cluster()
    job = Job(name="ghost", input_paths=["/nope"], output_path="/o",
              mapper=Mapper, n_reduces=0)
    event = platform.runners[cluster.name].submit(job)
    with pytest.raises(JobConfigError):
        platform.sim.run()
        _ = event.value


def test_directory_input_expansion():
    platform, cluster = make_cluster()
    upload_corpus(platform, cluster)
    first = Job(name="stage1", input_paths=["/wc/in"], output_path="/stage1",
                mapper=Mapper, n_reduces=0)
    report1 = platform.run_job(cluster, first)
    assert all(p.startswith("/stage1/") for p in report1.output_paths)
    second = wordcount_job("/stage1", "/stage2", n_reduces=1)
    report2 = platform.run_job(cluster, second)
    output = dict(platform.collect(cluster, report2))
    assert output == dict(collections.Counter(" ".join(LINES).split()))


def test_more_reduces_take_longer_on_tiny_data():
    times = {}
    for n_reduces in (1, 6):
        platform, cluster = make_cluster(n=16, seed=3)
        upload_corpus(platform, cluster)
        job = wordcount_job("/wc/in", "/out", n_reduces=n_reduces)
        times[n_reduces] = platform.run_job(cluster, job).elapsed
    assert times[6] > times[1]


def test_combiner_reduces_shuffle_volume():
    shuffled = {}
    for use in (False, True):
        platform, cluster = make_cluster(seed=9)
        upload_corpus(platform, cluster)
        job = wordcount_job("/wc/in", "/out", n_reduces=2, use_combiner=use)
        shuffled[use] = platform.run_job(cluster, job).shuffle_bytes
    assert shuffled[True] < shuffled[False]
    # ... and the outputs are identical either way.


def test_use_combiner_config_gate():
    # Cluster-level use_combiner=False ignores the job's combiner.
    config = HadoopConfig(use_combiner=False)
    platform, cluster = make_cluster(hadoop_config=config)
    upload_corpus(platform, cluster)
    job = wordcount_job("/wc/in", "/out", n_reduces=2, use_combiner=True)
    report = platform.run_job(cluster, job)
    total_words = sum(collections.Counter(" ".join(LINES).split()).values())
    # Without combining, every (word, 1) pair is shuffled.
    assert report.counters.get("job", "map_output_records") == total_words


def test_job_validation():
    with pytest.raises(JobConfigError):
        Job(name="", input_paths=["/a"], output_path="/b", mapper=Mapper)
    with pytest.raises(JobConfigError):
        Job(name="x", input_paths=[], output_path="/b", mapper=Mapper)
    with pytest.raises(JobConfigError):
        Job(name="x", input_paths=["/a"], output_path="/b", mapper=Mapper,
            n_reduces=-1)
    with pytest.raises(JobConfigError):
        Job(name="x", input_paths=["/a"], output_path="/b", mapper=Mapper,
            n_reduces=0, reducer=Reducer)
    with pytest.raises(JobConfigError):
        Job(name="x", input_paths=["/a"], output_path="/b", mapper=Mapper,
            force_num_maps=0)


def test_cross_domain_job_slower_than_normal():
    elapsed = {}
    big = lines_as_records(["lorem ipsum dolor sit amet " * 40] * 4000)
    for layout in ("normal", "cross-domain"):
        platform, cluster = make_cluster(n=16, layout=layout, seed=2)
        platform.upload(cluster, "/big", big,
                        sizeof=lambda r: (len(r[1]) + 1) * 50, timed=False)
        job = wordcount_job("/big", "/out", n_reduces=4, volume_scale=50)
        elapsed[layout] = platform.run_job(cluster, job).elapsed
    assert elapsed["cross-domain"] > elapsed["normal"]


def run_scaled_wordcounts():
    """Two 2,000-line volume-scaled Wordcounts (different names and reduce
    counts) on one cluster; returns (registry, reports)."""
    platform, cluster = make_cluster()
    lines = ["mu nu xi omicron pi " * 10] * 2000
    platform.upload(cluster, "/in", lines_as_records(lines),
                    sizeof=lambda r: (len(r[1]) + 1) * 60, timed=False)
    reports = []
    for name, n_reduces in (("wc-a", 4), ("wc-b", 2)):
        job = dataclasses.replace(
            wordcount_job("/in", f"/out-{name}", n_reduces=n_reduces,
                          volume_scale=60), name=name)
        reports.append(platform.run_job(cluster, job))
    return platform.datacenter.metrics, reports


def test_task_duration_count_equals_report_attempts():
    registry, reports = run_scaled_wordcounts()
    family = registry.families["mapreduce.task.duration"]
    assert (sum(child.count for _labels, child in family.items())
            == sum(len(report.tasks) for report in reports))


def test_partition_mib_in_range_one_observation_per_reduce_attempt():
    registry, reports = run_scaled_wordcounts()
    for report in reports:
        child = registry.histogram("mapreduce.shuffle.partition_mib",
                                   labels={"job": report.job_name})
        reduces = [t for t in report.tasks if t.kind == "reduce"]
        assert child.count == len(reduces) == report.n_reduces
        assert child.counts[-1] == 0            # nothing in the overflow bin
        assert child.total == pytest.approx(report.shuffle_bytes / C.MiB)
