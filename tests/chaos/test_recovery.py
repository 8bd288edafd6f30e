"""End-to-end automatic recovery: jobs survive injected failures.

These are the acceptance tests for the chaos harness: a worker (or a
whole host) dies *while a Wordcount runs* and the job must still finish
with byte-identical output — recovery is heartbeat reaping + task retry +
background re-replication, with no manual ``repair_cluster`` anywhere.
"""

import collections

import pytest

from repro.chaos import ChaosInjector, Fault, FaultPlan
from repro.config import HadoopConfig, PlatformConfig
from repro.errors import VMStateError
from repro.hdfs.replication import under_replicated
from repro.mapreduce.runner import MapReduceRunner
from repro.platform import ClusterSpec, VHadoopPlatform
from repro.platform.faults import crash_worker, rejoin_worker
from repro.scheduler import JobScheduler
from repro.virt import VMState
from repro.workloads.wordcount import (line_record_sizeof, lines_as_records,
                                       wordcount_job)

LINES = ["kappa lambda mu nu xi omicron pi rho",
         "lambda mu nu xi", "kappa kappa rho sigma tau"] * 60
RECORDS = lines_as_records(LINES)
EXPECTED = dict(collections.Counter(" ".join(LINES).split()))


def make(n=8, seed=11, replication=2, **hadoop):
    platform = VHadoopPlatform(PlatformConfig(n_hosts=2, seed=seed,
                                              trace=True))
    cluster = platform.provision_cluster(
        "rec", ClusterSpec.packed(n, hosts=2),
        hadoop_config=HadoopConfig(dfs_replication=replication, **hadoop))
    platform.upload(cluster, "/in", RECORDS, sizeof=line_record_sizeof,
                    timed=False)
    return platform, cluster


#: The two staffing strategies over the one task-attempt engine.  Tests
#: loop over them in the body (not via parametrize) so test ids stay put.
ENGINES = ["solo", "scheduler"]


def run_scheduled(platform, cluster, jobs, policy=None):
    """Submit ``jobs`` (each a job or a ``(job, pool)`` pair) to one
    JobScheduler, run the simulator until all finish, and return ``(job
    reports in submission order, SchedulerReport)`` — the sequence the
    ``schedule`` experiment runs."""
    scheduler = JobScheduler(cluster, policy=policy,
                             runner=platform.runner(cluster))
    events = []
    for item in jobs:
        job, pool = item if isinstance(item, tuple) else (item, "default")
        events.append(scheduler.submit(job, pool=pool))
    platform.sim.run_until(platform.sim.all_of(events))
    return [event.value for event in events], scheduler.finalize()


def run_job(platform, cluster, job, engine="solo"):
    """Run ``job`` through the plain runner or a FIFO JobScheduler."""
    if engine == "solo":
        return platform.run_job(cluster, job)
    (report,), _sched = run_scheduled(platform, cluster, [job])
    return report


def run_clean(seed=11):
    platform, cluster = make(seed=seed)
    report = run_job(platform, cluster,
                     wordcount_job("/in", "/out", n_reduces=2))
    return report.elapsed, sorted(platform.collect(cluster, report))


def run_with_plan(plan_builder, seed=11, engine="solo"):
    platform, cluster = make(seed=seed)
    ChaosInjector(cluster, plan_builder(cluster)).start()
    report = run_job(platform, cluster,
                     wordcount_job("/in", "/out", n_reduces=2), engine)
    return platform, cluster, sorted(platform.collect(cluster, report))


# --- satellite: kill a worker at several points of the job ----------------

@pytest.mark.parametrize("fraction", [0.15, 0.45, 0.75])
def test_worker_crash_mid_job_output_identical(fraction):
    elapsed, clean = run_clean()

    def plan(cluster):
        victim = cluster.workers[1]
        return FaultPlan(name=f"kill-{fraction}").add(
            Fault(at=fraction * elapsed, kind="vm.crash",
                  target=victim.name))

    for engine in ENGINES:
        _platform, _cluster, chaos = run_with_plan(plan, engine=engine)
        assert chaos == clean, engine
        assert dict(chaos) == EXPECTED, engine


def test_whole_host_crash_mid_job_output_identical():
    elapsed, clean = run_clean()

    def plan(cluster):
        doomed = cluster.datacenter.machines[-1].name
        return FaultPlan(name="host-loss").add(
            Fault(at=0.4 * elapsed, kind="host.crash", target=doomed))

    platform, cluster, chaos = run_with_plan(plan)
    assert chaos == clean
    # Correlated failure across a whole host: the reaper and the
    # replication monitor both fire (possibly only after the job already
    # finished — detection has a grace period), and no manual repair ran.
    platform.sim.run(until=platform.sim.now + 120.0)
    assert platform.tracer.count("recovery.tracker.dead") >= 1
    assert platform.tracer.count("recovery.replication.start") >= 1


def test_crash_with_rejoin_mid_job_output_identical():
    elapsed, clean = run_clean()

    def plan(cluster):
        victim = cluster.workers[2]
        return FaultPlan(name="bounce").add(
            Fault(at=0.3 * elapsed, kind="vm.crash", target=victim.name,
                  duration=0.3 * elapsed))

    for engine in ENGINES:
        _platform, _cluster, chaos = run_with_plan(plan, engine=engine)
        assert chaos == clean, engine


# --- satellite regression: double failure during shuffle recovery --------

def test_shuffle_recovery_survives_second_failure():
    """A mapper VM dies after the map phase (its intermediate output is
    lost) and another worker dies during the reduce phase.  The shuffle
    re-runs the lost map; if the re-run lands on the second victim the
    attempt fails cleanly and is retried elsewhere — the job must still
    produce correct output either way."""
    platform, cluster = make()
    cluster.arm_recovery()
    runner = platform.runner(cluster)
    done = runner.submit(wordcount_job("/in", "/out", n_reduces=2))

    sim = platform.sim
    while not platform.tracer.count("job.maps.done"):
        sim.step()
    mapper_name = next(platform.tracer.select("task.map.done"))["tracker"]
    first = next(tr.vm for tr in cluster.trackers
                 if tr.name == mapper_name)
    crash_worker(cluster, first)
    second = next(vm for vm in cluster.workers
                  if vm is not first and vm.state is VMState.RUNNING)
    crash_worker(cluster, second)

    platform.sim.run_until(done)
    assert dict(runner.read_output(done.value)) == EXPECTED
    assert platform.tracer.count("task.map.recover") >= 1


def test_shuffle_recovery_replaces_the_lost_runs_output_identical(
        monkeypatch):
    """A mapper VM dies between the phases: every reduce that fetches from
    it re-runs the map and swaps the recomputed key-grouped runs in for
    the lost ones.  The runs are equal, so the output cannot change."""
    recover = MapReduceRunner._recover_map_output
    swaps = []

    def spying_recover(self, output, to_vm):
        lost = output.partitions
        yield from recover(self, output, to_vm)
        swaps.append((lost, output.partitions, output.tracker.vm))

    monkeypatch.setattr(MapReduceRunner, "_recover_map_output",
                        spying_recover)
    _elapsed, clean = run_clean()
    for engine in ENGINES:
        swaps.clear()
        platform, cluster = make()
        cluster.arm_recovery()
        runner = platform.runner(cluster)
        submit = (runner.submit if engine == "solo"
                  else JobScheduler(cluster, runner=runner).submit)
        done = submit(wordcount_job("/in", "/out", n_reduces=2))
        while not platform.tracer.count("job.maps.done"):
            platform.sim.step()
        mapper_name = next(platform.tracer.select("task.map.done"))["tracker"]
        crash_worker(cluster, next(tr.vm for tr in cluster.trackers
                                   if tr.name == mapper_name))
        platform.sim.run_until(done)
        assert swaps, engine
        for lost, recomputed, vm in swaps:
            assert recomputed is not lost and recomputed == lost, engine
            assert vm.state is VMState.RUNNING, engine
        assert sorted(runner.read_output(done.value)) == clean, engine


def test_aborted_shuffle_recovery_cancels_its_rerun():
    """A reduce attempt aborted while its shuffle re-runs a lost map must
    cancel the re-run's in-flight work: the re-run's CPU flow ends at the
    crash instant and the dead VM is billed only what it retired."""
    for engine in ENGINES:
        platform, cluster = make()
        cluster.arm_recovery()
        runner = platform.runner(cluster)
        submit = (runner.submit if engine == "solo"
                  else JobScheduler(cluster, runner=runner).submit)
        done = submit(wordcount_job("/in", "/out", n_reduces=2))
        sim, fss = platform.sim, platform.datacenter.fss
        while not platform.tracer.count("job.maps.done"):
            sim.step()
        mapper_name = next(platform.tracer.select("task.map.done"))["tracker"]
        crash_worker(cluster, next(tr.vm for tr in cluster.trackers
                                   if tr.name == mapper_name))
        rerun = None
        while rerun is None:
            sim.step()
            rerun = next((f for f in fss.active_flows
                          if ":map:" in f.name), None)
        vm = next(w for w in cluster.workers
                  if rerun.name.startswith(f"{w.name}:"))
        assert [f for f in fss.active_flows
                if f.path[0] is vm.vcpu] == [rerun], engine
        # Crash the recovering VM a quarter of the way into the re-run.
        left = rerun.size - rerun.transferred
        sim.run(until=sim.now + left / rerun.rate / 4)
        billed = vm.cpu_seconds
        crashed_at = sim.now
        crash_worker(cluster, vm)
        sim.run_until(done)
        assert rerun.end_time == crashed_at, engine
        assert 0 < rerun.transferred < rerun.size, engine
        assert vm.cpu_seconds - billed == rerun.transferred, engine
        assert dict(runner.read_output(done.value)) == EXPECTED, engine


# --- blacklist lifetime ------------------------------------------------------

def test_blacklist_is_scoped_to_one_job_run():
    """A tracker blacklisted during one run of a job must work again in
    the next run of a same-named job (every k-means iteration, every
    MRBench rep reuses its job name)."""
    platform, cluster = make(tracker_blacklist_failures=1)
    victim = cluster.workers[2]

    def job(out):
        j = wordcount_job("/in", out, n_reduces=2)
        j.force_num_maps = 16          # a wave for every map slot
        j.map_cpu_per_record = 0.5     # long enough to die mid-attempt
        return j

    done = platform.runner(cluster).submit(job("/out"))
    # Crash the victim the instant its first map attempt closes: the
    # attempt in its other slot dies mid-flight and is charged to it.
    while not any(s.kind == "task.map.attempt"
                  and s.attrs["tracker"] == victim.name
                  for s in platform.tracer.spans):
        platform.sim.step()
    crash_worker(cluster, victim)
    platform.sim.run_until(done)
    assert [e.source for e in platform.tracer.select(
        "recovery.tracker.blacklisted")] == [victim.name]

    rejoin_worker(cluster, victim)
    rerun = platform.run_job(cluster, job("/out2"))
    assert rerun.job_name == done.value.job_name
    assert victim.name in {t.tracker for t in rerun.tasks}
    assert dict(platform.collect(cluster, rerun)) == EXPECTED


# --- crash/rejoin primitives ----------------------------------------------

def test_crash_worker_rejects_non_worker():
    platform, cluster = make()
    outsider = platform.datacenter.create_vm(
        "outsider", platform.datacenter.machine(0))
    with pytest.raises(VMStateError):
        crash_worker(cluster, outsider)


def test_crash_worker_defers_detection_to_monitors():
    platform, cluster = make()
    cluster.arm_recovery()
    victim = cluster.workers[0]
    n_trackers = len(cluster.trackers)
    crash_worker(cluster, victim)
    # Unlike fail_worker, services are not detached synchronously …
    assert victim.state is VMState.FAILED
    assert len(cluster.trackers) == n_trackers
    # … the heartbeat reaper removes the tracker after the grace period.
    grace = (cluster.config.missed_heartbeats_dead
             * cluster.config.heartbeat_s)
    platform.sim.run(until=platform.sim.now + grace + 1.0)
    assert len(cluster.trackers) == n_trackers - 1
    assert platform.tracer.count("recovery.tracker.dead") == 1


def test_replication_monitor_repairs_without_manual_call():
    platform, cluster = make()
    cluster.arm_recovery()
    victim_dn = next(dn for dn in cluster.datanodes if dn.blocks)
    crash_worker(cluster, victim_dn.vm)
    assert under_replicated(cluster.namenode,
                            cluster.config.dfs_replication) == []
    platform.sim.run(until=platform.sim.now + 120.0)
    assert platform.tracer.count("recovery.datanode.dead") == 1
    assert platform.tracer.count("recovery.replication.done") >= 1
    assert victim_dn not in cluster.namenode.datanodes
    assert not under_replicated(cluster.namenode,
                                cluster.config.dfs_replication)


def test_rejoin_worker_restores_services_and_rearms_watchers():
    platform, cluster = make()
    cluster.arm_recovery()
    victim = cluster.workers[3]
    crash_worker(cluster, victim)
    platform.sim.run(until=platform.sim.now + 120.0)  # reap + re-replicate
    rejoin_worker(cluster, victim)
    assert victim.state is VMState.RUNNING
    assert any(t.vm is victim for t in cluster.trackers)
    fresh = [dn for dn in cluster.datanodes if dn.vm is victim]
    assert len(fresh) == 1 and not fresh[0].blocks  # cold disk
    assert fresh[0] in cluster.namenode.datanodes
    assert platform.tracer.count("recovery.worker.rejoined") == 1
    # The rejoined node is watched again: crash it a second time.
    platform.sim.run(until=platform.sim.now + 1.0)
    crash_worker(cluster, victim)
    platform.sim.run(until=platform.sim.now + 120.0)
    assert platform.tracer.count("recovery.tracker.dead") == 2

    report = platform.run_job(cluster,
                              wordcount_job("/in", "/out2", n_reduces=2))
    assert dict(platform.collect(cluster, report)) == EXPECTED
