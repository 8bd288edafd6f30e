"""Property-based tests (hypothesis) on scheduler invariants.

* work conservation: slot workers never park while dispatchable work exists;
* FIFO: identical jobs start and finish in submission order;
* fair-share dominance: a pool at its min-share is never preempted;
* functional identity: every concurrently-scheduled job's output equals an
  in-process LocalJobRunner run, under any policy.
"""

import collections

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import PlatformConfig
from repro.mapreduce import LocalJobRunner
from repro.platform import ClusterSpec, VHadoopPlatform
from repro.scheduler import (CapacityScheduler, FairScheduler, FifoScheduler,
                             PoolConfig, QueueConfig)
from repro.workloads.wordcount import (lines_as_records, line_record_sizeof,
                                       wordcount_job)
from tests.chaos.test_recovery import run_scheduled

_SLOW = dict(deadline=None,
             suppress_health_check=[HealthCheck.too_slow,
                                    HealthCheck.data_too_large])

LINES = ["zeta eta theta iota", "eta theta iota", "theta iota"] * 6
RECORDS = lines_as_records(LINES)
EXPECTED = dict(collections.Counter(" ".join(LINES).split()))


def make_platform(seed):
    platform = VHadoopPlatform(PlatformConfig(n_hosts=2, seed=seed))
    cluster = platform.provision_cluster("prop",
                                        ClusterSpec.spread(6, hosts=2))
    platform.upload(cluster, "/in", RECORDS, sizeof=line_record_sizeof,
                    timed=False)
    return platform, cluster


def make_jobs(n_jobs, pools):
    jobs = []
    for i in range(n_jobs):
        job = wordcount_job("/in", f"/out-{i}", n_reduces=2)
        job.name = f"job-{i}"
        job.map_cpu_per_record = 0.05
        jobs.append((job, pools[i % len(pools)]))
    return jobs


POLICIES = {
    "fifo": lambda: FifoScheduler(),
    "fair": lambda: FairScheduler(pools=[PoolConfig("p0", weight=2.0),
                                         PoolConfig("p1", min_share=2)]),
    "capacity": lambda: CapacityScheduler(queues=[QueueConfig("p0", 0.5),
                                                  QueueConfig("p1", 0.5)]),
}


@settings(max_examples=8, **_SLOW)
@given(st.integers(1, 4), st.sampled_from(sorted(POLICIES)),
       st.integers(0, 3))
def test_outputs_identical_to_local_runner_and_work_conserving(
        n_jobs, policy_name, seed):
    platform, cluster = make_platform(seed)
    jobs = make_jobs(n_jobs, pools=["p0", "p1"])
    reports, sched = run_scheduled(platform, cluster, jobs,
                                   policy=POLICIES[policy_name]())
    for (job, _pool), report in zip(jobs, reports):
        assert platform.collect(cluster, report) == \
            LocalJobRunner().run(job, RECORDS)
    # A slot worker never sleeps while dispatchable tasks are pending.
    assert sched.idle_while_pending_s == 0.0
    assert len(sched.jobs) == n_jobs


@settings(max_examples=8, **_SLOW)
@given(st.integers(2, 5), st.integers(0, 3))
def test_fifo_preserves_submission_order(n_jobs, seed):
    platform, cluster = make_platform(seed)
    jobs = make_jobs(n_jobs, pools=["default"])
    reports, _sched = run_scheduled(platform, cluster, jobs,
                                    policy=FifoScheduler())
    firsts = [r.first_task_at for r in reports]
    finishes = [r.finished_at for r in reports]
    # FIFO guarantees dispatch order, not completion order: a later job's
    # reduces can ride an emptier cluster and overtake an earlier job's
    # speculative tail, so only first-task times are totally ordered.
    assert firsts == sorted(firsts)
    assert all(f > s for s, f in zip(firsts, finishes))


@settings(max_examples=6, **_SLOW)
@given(st.integers(1, 3), st.integers(2, 4), st.integers(0, 2))
def test_pool_at_min_share_is_never_preempted(min_share, timeout_s, seed):
    """Fair-share dominance: every kill leaves the victim pool at or above
    max(min_share, fair share) — a pool at its guarantee is inviolable."""
    platform, cluster = make_platform(seed)
    policy = FairScheduler(pools=[
        PoolConfig("claimer", min_share=4,
                   preemption_timeout_s=float(timeout_s)),
        PoolConfig("victim", min_share=min_share),
    ], preemption_check_s=1.0)
    jobs = []
    hog = wordcount_job("/in", "/hog", n_reduces=1)
    hog.name = "hog"
    hog.map_cpu_per_record = 4.0
    hog.force_num_maps = 30
    jobs.append((hog, "victim"))
    late = wordcount_job("/in", "/late", n_reduces=1)
    late.name = "late"
    late.map_cpu_per_record = 0.2
    jobs.append((late, "claimer"))
    _reports, sched = run_scheduled(platform, cluster, jobs, policy=policy)
    kills = list(platform.tracer.select("scheduler.preempt"))
    by_sweep = collections.defaultdict(list)
    for k in kills:
        assert k["victim_floor"] >= k["victim_min_share"]
        by_sweep[(k.time, k["victim_pool"])].append(k)
    for sweep in by_sweep.values():
        assert len(sweep) <= sweep[0]["victim_running"] - \
            sweep[0]["victim_floor"]
    assert sched.idle_while_pending_s == 0.0
