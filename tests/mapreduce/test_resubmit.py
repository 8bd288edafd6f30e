"""``Job.resubmit_to``: copies of one job definition run each task's user
code once between them, and nothing the simulation measures can tell.

The differential runs N resubmissions on one cluster and N freshly built
jobs on a same-seed twin; the validity tests are the ways a hit could be
wrong (changed input, other combiner state, a failure, a swapped field)."""

import collections
import dataclasses

from repro import constants as C
from repro.config import HadoopConfig, PlatformConfig
from repro.mapreduce import LocalJobRunner
from repro.platform import ClusterSpec, VHadoopPlatform
from repro.platform.faults import crash_worker
from repro.workloads.wordcount import (WordCountMapper, WordCountReducer,
                                       lines_as_records, scaled_line_sizeof,
                                       wordcount_job)

SCALE = 4000            # ~100 KB a line: ten lines to a 1 MiB block
LINES = [f"w{i % 7} w{i % 5} common w{i % 3} tail{i % 11}" for i in range(48)]
OTHER_LINES = [f"x{i % 4} other x{i % 9}" for i in range(48)]
N = 4


def make(lines=LINES, **hadoop):
    platform = VHadoopPlatform(PlatformConfig(n_hosts=2, seed=11,
                                              trace=True))
    cluster = platform.provision_cluster(
        "rs", ClusterSpec.packed(8, hosts=2),
        hadoop_config=HadoopConfig(dfs_block_size=1 * C.MiB, **hadoop))
    upload(platform, cluster, lines)
    return platform, cluster


def upload(platform, cluster, lines):
    platform.upload(cluster, "/in", lines_as_records(lines),
                    sizeof=scaled_line_sizeof(SCALE), timed=False)


def counting_job(output_path, **kwargs):
    """A Wordcount whose user code counts its executions per task id."""
    calls = collections.Counter()

    class CountingMapper(WordCountMapper):
        def setup(self, context):
            calls[context.task_id] += 1

    class CountingReducer(WordCountReducer):
        def setup(self, context):
            calls[context.task_id] += 1

    job = dataclasses.replace(
        wordcount_job("/in", output_path, n_reduces=3, volume_scale=SCALE,
                      **kwargs),
        mapper=CountingMapper, reducer=CountingReducer)
    return job, calls


def expected(lines=LINES, job=None):
    """The oracle's output (through an uncounted Wordcount by default)."""
    job = job or wordcount_job("/in", "/oracle", n_reduces=3)
    return sorted(LocalJobRunner().run(job, lines_as_records(lines)))


def run_all(platform, cluster, jobs):
    """Submit ``jobs`` all at one instant and run them to completion."""
    runner = platform.runner(cluster)
    events = [runner.submit(job) for job in jobs]
    platform.sim.run()
    return [event.value for event in events]


def measured(platform, cluster, report):
    return (report.elapsed, report.tasks, report.counters.as_dict(),
            report.shuffle_bytes, report.output_bytes,
            platform.runner(cluster).read_output(report))


# --- (a) differential ------------------------------------------------------

def test_resubmissions_measure_what_fresh_jobs_measure():
    shared_platform, shared_cluster = make()
    template, shared_calls = counting_job("/out")
    shared = run_all(shared_platform, shared_cluster,
                     [template.resubmit_to(f"/out-{i}") for i in range(N)])

    fresh_platform, fresh_cluster = make()
    fresh_jobs, fresh_counts = zip(*(counting_job(f"/out-{i}")
                                     for i in range(N)))
    fresh = run_all(fresh_platform, fresh_cluster, fresh_jobs)
    fresh_calls = sum(fresh_counts, collections.Counter())

    for a, b in zip(shared, fresh):
        assert (measured(shared_platform, shared_cluster, a)
                == measured(fresh_platform, fresh_cluster, b))
        assert a.n_maps > 1 and a.submitted_at < shared[0].map_phase_end
    assert shared_platform.sim.now == fresh_platform.sim.now
    assert (shared_platform.sim.events_processed
            == fresh_platform.sim.events_processed)
    assert sorted(shared[0].output_paths) == [
        f"/out-0/part-r-{p:05d}" for p in range(3)]
    assert (sorted(shared_platform.collect(shared_cluster, shared[-1]))
            == expected())

    tasks = shared[0].n_maps + 3
    assert len(shared_calls) == len(fresh_calls) == tasks
    assert set(shared_calls.values()) == {1}    # once per split / partition
    assert set(fresh_calls.values()) == {N}


# --- (b) hit validity ------------------------------------------------------

def test_plain_job_never_memoises():
    platform, cluster = make()
    job, calls = counting_job("/out")
    assert job._memo is None
    platform.run_job(cluster, job)
    job.output_path = "/out-again"
    platform.run_job(cluster, job)
    assert set(calls.values()) == {2} and job._memo is None


def test_reuploaded_input_is_recomputed():
    platform, cluster = make()
    template, calls = counting_job("/out")
    first = platform.run_job(cluster, template.resubmit_to("/out-0"))
    # The same definition over a fresh upload of other lines to ``/in``.
    other_platform, other_cluster = make(OTHER_LINES)
    second = other_platform.run_job(other_cluster,
                                    template.resubmit_to("/out-1"))
    assert sorted(platform.collect(cluster, first)) == expected()
    assert sorted(other_platform.collect(other_cluster, second)) == \
        expected(OTHER_LINES)
    assert all(calls[task.task_id] == 2 for task in second.tasks)


def test_combiner_state_is_part_of_the_hit():
    on_platform, on_cluster = make(use_combiner=True)
    off_platform, off_cluster = make(use_combiner=False)
    # Give both clusters the very same split payload objects, so only the
    # combiner state stands between the second run and a hit.
    on_nn, off_nn = on_cluster.namenode, off_cluster.namenode
    for on_block, off_block in zip(on_nn.get_file("/in").blocks,
                                   off_nn.get_file("/in").blocks):
        off_nn.block_store.put(off_block, on_nn.block_store.get(on_block))
        assert (off_nn.block_store.get(off_block)
                is on_nn.block_store.get(on_block))

    template, calls = counting_job("/out", use_combiner=True)
    combined = on_platform.run_job(on_cluster, template.resubmit_to("/a"))
    plain = off_platform.run_job(off_cluster, template.resubmit_to("/b"))
    assert set(calls.values()) == {2}
    assert plain.shuffle_bytes > combined.shuffle_bytes
    assert (sorted(off_platform.collect(off_cluster, plain))
            == sorted(on_platform.collect(on_cluster, combined))
            == expected())
    # Same combiner state over the same payload objects: now it all hits.
    off_platform.run_job(off_cluster, template.resubmit_to("/c"))
    assert set(calls.values()) == {2}


def test_swapped_functional_field_falls_back_to_running_user_code():
    platform, cluster = make()
    template, _calls = counting_job("/out")
    platform.run_job(cluster, template.resubmit_to("/out-0"))

    class ShoutingMapper(WordCountMapper):
        def map(self, key, value, context):
            context.emit_many(str(value).upper().split(), 1)

    swapped = template.resubmit_to("/out-1")
    swapped.mapper = ShoutingMapper
    report = platform.run_job(cluster, swapped)
    assert (sorted(platform.collect(cluster, report))
            == expected(job=swapped) != expected())
    # ... and the template's own copies still get the template's output.
    again = platform.run_job(cluster, template.resubmit_to("/out-2"))
    assert sorted(platform.collect(cluster, again)) == expected()


def test_failed_attempt_is_retried_not_memoised():
    platform, cluster = make()
    template, calls = counting_job("/out")
    failed = []

    class FlakyMapper(template.mapper):
        def setup(self, context):
            super().setup(context)
            if context.task_id == "m-00001" and not failed:
                failed.append(context.task_id)
                raise RuntimeError("boom")

    template.mapper = FlakyMapper
    reports = run_all(platform, cluster,
                      [template.resubmit_to(f"/out-{i}") for i in range(2)])
    assert failed == ["m-00001"]
    assert platform.tracer.count("recovery.task.retry") == 1
    for report in reports:
        assert sorted(platform.collect(cluster, report)) == expected()
    assert calls.pop("m-00001") == 2            # the failure, then the run
    assert set(calls.values()) == {1}


def test_worker_crash_between_phases_still_yields_the_clean_output():
    platform, cluster = make(dfs_replication=2)
    cluster.arm_recovery()
    template, _calls = counting_job("/out")
    platform.run_job(cluster, template.resubmit_to("/out-0"))  # fill the memo
    runner = platform.runner(cluster)
    done = runner.submit(template.resubmit_to("/out-1"))
    while platform.tracer.count("job.maps.done") < 2:
        platform.sim.step()
    mapper_name = [e["tracker"] for e in
                   platform.tracer.select("task.map.done")][-1]
    crash_worker(cluster, next(tr.vm for tr in cluster.trackers
                               if tr.name == mapper_name))
    platform.sim.run_until(done)
    assert platform.tracer.count("task.map.recover") >= 1
    assert sorted(runner.read_output(done.value)) == expected()
