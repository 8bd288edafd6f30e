"""Integration tests for the multi-job JobScheduler."""

import collections

import pytest

from repro.config import PlatformConfig
from repro.errors import SimulationError
from repro.mapreduce import Job, LocalJobRunner, Mapper
from repro.platform import ClusterSpec, VHadoopPlatform
from repro.scheduler import (CapacityScheduler, FairScheduler, FifoScheduler,
                             JobScheduler, PoolConfig, QueueConfig)
from repro.workloads.wordcount import (lines_as_records, line_record_sizeof,
                                       wordcount_job)
from tests.chaos.test_recovery import run_job, run_scheduled

LINES = ["alpha beta gamma delta", "beta gamma delta", "gamma delta",
         "delta epsilon"] * 8
RECORDS = lines_as_records(LINES)
EXPECTED = dict(collections.Counter(" ".join(LINES).split()))


def make_cluster(seed=5, n=8, hadoop_config=None):
    platform = VHadoopPlatform(PlatformConfig(n_hosts=2, seed=seed))
    cluster = platform.provision_cluster(
        "sch", ClusterSpec.spread(n, hosts=2), hadoop_config=hadoop_config)
    platform.upload(cluster, "/in", RECORDS, sizeof=line_record_sizeof,
                    timed=False)
    return platform, cluster


def wc(out, name, n_reduces=2, cpu=0.02):
    job = wordcount_job("/in", out, n_reduces=n_reduces)
    job.name = name
    job.map_cpu_per_record = cpu
    return job


def spans_overlap(a, b):
    return a.start < b.end and b.start < a.end


def test_concurrent_jobs_interleave_with_identical_outputs():
    platform, cluster = make_cluster()
    policy = FairScheduler(pools=[PoolConfig("p1"), PoolConfig("p2")])
    jobs = [wc("/out-a", "job-a"), wc("/out-b", "job-b")]
    jobs[0].force_num_maps = 8
    jobs[1].force_num_maps = 8
    reports, sched = run_scheduled(
        platform, cluster, [(jobs[0], "p1"), (jobs[1], "p2")], policy=policy)

    # Functional outputs are bit-identical to a solo in-process run.
    for job, report in zip(jobs, reports):
        assert platform.collect(cluster, report) == \
            LocalJobRunner().run(job, RECORDS)
        assert dict(platform.collect(cluster, report)) == EXPECTED

    # The jobs really interleaved at slot granularity.
    assert sched.concurrent_busy_s > 0.0
    a_tasks = [t for t in reports[0].tasks]
    b_tasks = [t for t in reports[1].tasks]
    assert any(spans_overlap(ta, tb) for ta in a_tasks for tb in b_tasks)

    # Scheduler accounting is coherent.
    assert len(sched.jobs) == 2
    assert sched.makespan > 0
    assert sched.busy_slot_seconds > 0
    assert sched.idle_while_pending_s == 0.0
    assert set(sched.pools) == {"p1", "p2"}
    assert all(p.n_jobs == 1 for p in sched.pools.values())
    assert all(p.slot_seconds > 0 for p in sched.pools.values())


def test_fifo_runs_jobs_in_submission_order():
    platform, cluster = make_cluster(seed=9)
    jobs = [wc(f"/out-{i}", f"job-{i}") for i in range(3)]
    reports, sched = run_scheduled(platform, cluster, jobs,
                                   policy=FifoScheduler())
    assert sched.policy == "fifo"
    firsts = [r.first_task_at for r in reports]
    finishes = [r.finished_at for r in reports]
    assert firsts == sorted(firsts)
    assert finishes == sorted(finishes)


def test_capacity_scheduler_end_to_end():
    platform, cluster = make_cluster(seed=13)
    policy = CapacityScheduler(queues=[QueueConfig("etl", 0.5),
                                       QueueConfig("adhoc", 0.5)])
    jobs = [(wc("/out-a", "etl-job"), "etl"),
            (wc("/out-b", "adhoc-job"), "adhoc")]
    reports, sched = run_scheduled(platform, cluster, jobs, policy=policy)
    assert sched.policy == "capacity"
    for report in reports:
        assert dict(platform.collect(cluster, report)) == EXPECTED
    assert {j.pool for j in sched.jobs} == {"etl", "adhoc"}


def test_default_policy_is_fifo_and_plain_jobs_default_pool():
    platform, cluster = make_cluster(seed=3)
    reports, sched = run_scheduled(platform, cluster, [wc("/out", "solo")])
    assert sched.policy == "fifo"
    assert sched.jobs[0].pool == "default"
    assert dict(platform.collect(cluster, reports[0])) == EXPECTED


def test_map_only_job_through_scheduler():
    platform, cluster = make_cluster(seed=17)
    job = Job(name="identity", input_paths=["/in"], output_path="/id",
              mapper=Mapper, n_reduces=0)
    reports, _sched = run_scheduled(platform, cluster, [job])
    assert sorted(platform.collect(cluster, reports[0])) == sorted(RECORDS)


def test_job_report_scheduler_fields():
    platform, cluster = make_cluster(seed=21)
    reports, sched = run_scheduled(
        platform, cluster, [(wc("/out", "measured"), "analytics")])
    report = reports[0]
    assert report.pool == "analytics"
    assert report.first_task_at is not None
    assert report.wait_s == report.first_task_at - report.submitted_at
    assert report.wait_s >= 0
    assert report.slot_seconds > 0
    stats = sched.jobs[0]
    assert stats.job_name == "measured"
    assert stats.wait_s == pytest.approx(report.wait_s)
    assert stats.slot_seconds == pytest.approx(report.slot_seconds)


def test_finalize_refuses_while_jobs_active():
    platform, cluster = make_cluster(seed=25)
    scheduler = JobScheduler(cluster, runner=platform.runner(cluster))
    done = scheduler.submit(wc("/out", "inflight"))
    with pytest.raises(SimulationError):
        scheduler.finalize()
    platform.sim.run_until(done)
    scheduler.finalize()  # completes fine afterwards


def test_backlog_and_total_slots():
    platform, cluster = make_cluster(seed=29)
    scheduler = JobScheduler(cluster, runner=platform.runner(cluster))
    per_tracker = cluster.config.map_tasks_maximum
    assert scheduler.total_slots("map") == \
        per_tracker * len(cluster.trackers)
    assert scheduler.backlog("map") == 0
    job = wc("/out", "backlogged")
    job.force_num_maps = 40
    done = scheduler.submit(job)
    # Drive until the map stage opens, then peek the backlog.
    while scheduler.backlog("map") == 0 and not done.triggered:
        platform.sim.step()
    assert scheduler.backlog("map") > 0
    platform.sim.run_until(done)
    scheduler.finalize()


def test_scheduler_emits_trace_events():
    platform, cluster = make_cluster(seed=33)
    run_scheduled(platform, cluster, [wc("/out", "traced")])
    (submit,) = platform.tracer.select("scheduler.submit")
    assert submit["policy"] == "fifo"
    assert platform.tracer.count("task.map.done") >= 1


def test_solo_runner_and_fifo_scheduler_share_one_engine():
    """The same fault-free job through both staffing paths: identical
    output, counters, task set and task-attempt span shape."""
    def run(engine):
        platform, cluster = make_cluster()
        job = wc("/out", "parity")
        job.force_num_maps = 8
        report = run_job(platform, cluster, job, engine)
        attempt_keys = {
            (s.kind, s.name): tuple(s.attrs)
            for s in platform.tracer.spans
            if s.kind in ("task.map.attempt", "task.reduce.attempt")}
        return (platform.collect(cluster, report),
                report.counters.as_dict(),
                {(t.task_id, t.kind) for t in report.tasks}, attempt_keys)

    solo, scheduled = run("solo"), run("scheduler")
    assert solo == scheduled
    output, _counters, tasks, attempt_keys = solo
    assert dict(output) == EXPECTED
    assert len(tasks) == len(attempt_keys) == 8 + 2
    assert attempt_keys["task.map.attempt", "m-00000"] == (
        "tracker", "locality", "speculative", "job", "won")
    assert attempt_keys["task.reduce.attempt", "r-00000"] == (
        "tracker", "speculative", "job", "won")
