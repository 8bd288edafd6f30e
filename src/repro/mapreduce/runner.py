"""MapReduceRunner: the timed, cluster-bound task-attempt engine.

One ``_Phase``, one attempt, one job lifecycle, two staffing strategies:

* A :class:`_Phase` carries everything that is live about one phase (map
  or reduce) of one job run: the task queue, what is running / finished /
  backed up, failed-attempt counts, retries still waiting out their
  backoff, the reduce commit table and the ``done`` event.
* :meth:`MapReduceRunner._execute` is the only task-attempt body (attempt
  span -> the task generator raced against tracker death or a kill ->
  failure/retry or bookkeeping -> ``done``) and
  :meth:`MapReduceRunner._job_proc` the only job lifecycle (JOB_SUBMIT ->
  localize -> map phase -> reduce phase or map-only output -> JOB_DONE).
* *Who runs the attempts* is the one thing callers differ in.
  :meth:`MapReduceRunner.submit` staffs each phase with ephemeral workers,
  one per (TaskTracker, slot), that leave when the queue drains;
  :class:`~repro.scheduler.JobScheduler` offers the phase to its perpetual
  slot pool, where a policy arbitrates between concurrent jobs.

The cost model is hadoop-0.20, as the paper ran it:

* Map assignment is **locality-aware** (node-local replica > host-local
  replica > remote), which is Hadoop's scheduler behaviour and one of
  DESIGN.md's ablation points.
* Every assignment pays a heartbeat latency (tasks are handed out on
  TaskTracker heartbeats) drawn uniformly from ``[0, heartbeat_s)``, plus a
  fixed startup cost (the JVM launch).  These two constants produce the
  MRBench shape of Fig. 3 — tiny jobs get slower as task counts grow.
* A map task reads its split (disk at the replica holder + a network hop if
  remote), charges CPU through the virtualization layer, runs the *real*
  mapper (and combiner), partitions the output, and spills it to the local
  virtual disk (= NFS, per the paper's image layout).
* After the map phase, reduce tasks shuffle their partition from every map
  VM (at most ``shuffle_parallel_copies`` concurrent fetches), charge the
  sort/merge cost, run the *real* reducer, and write replicated output to
  HDFS.
* Intermediate pairs never exist as tuples: the mapper's ``Context``
  collects two columns, the map task groups them by key once and leaves
  each reduce partition as a key-grouped run, and the reduce merges the
  runs of all maps (:mod:`repro.mapreduce.api`; sizes, counters and the
  reducer's input are those of the flat-pair path, which
  ``LocalJobRunner`` still is).

The report records per-task attempts and per-phase spans; the functional
output is bit-identical to :class:`~repro.mapreduce.local.LocalJobRunner`
(tested property); :meth:`Job.resubmit_to` copies run each task's user
code once between them, and every charge above is still made per task.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Optional, TYPE_CHECKING

from repro import constants as C
from repro.errors import JobConfigError, TaskFailure, VMStateError
from repro.hdfs.datanode import DataNode
from repro.mapreduce.api import (Context, Reducer, combine, merge_runs,
                                 partition_bytes, partition_groups,
                                 run_mapper, run_reducer, sort_groups)
from repro.mapreduce.counters import Counters
from repro.mapreduce.job import Job
from repro.sim import Resource
from repro.sim.kernel import Event, cancel
from repro.sim.trace import Span
from repro.telemetry import events as EV
from repro.virt.vm import VMState

if TYPE_CHECKING:  # pragma: no cover
    from repro.platform.cluster import HadoopVirtualCluster, TaskTracker


def _drive_racing(sim, gen, stop: Event, abortable=None):
    """Run task generator ``gen``, racing every wait against ``stop``.

    Returns ``(result, stopped)``.  When ``stop`` fires first the generator
    is closed and the event it was waiting on is cancelled, in the same
    step: sub-processes close, and the virt/net leaf operations close
    their flows and bill only the work actually done.  ``abortable`` (when
    given) is consulted at the moment ``stop`` fires: returning False
    makes the attempt unabortable from then on — used by reduces that
    already hold the output-commit token, which must run to completion so
    the commit protocol stays single-writer.
    """
    def may_abort() -> bool:
        return abortable is None or abortable()

    try:
        target = next(gen)
    except StopIteration as stop_iter:
        return stop_iter.value, False
    while True:
        if stop.triggered:
            if may_abort():
                gen.close()
                cancel(target)
                return None, True
            yield target
        else:
            yield sim.any_of([target, stop])
            if stop.triggered and not target.triggered:
                if may_abort():
                    gen.close()
                    cancel(target)
                    return None, True
                yield target
        try:
            target = gen.send(target.value)
        except StopIteration as stop_iter:
            return stop_iter.value, False


@dataclass
class _MapSpec:
    """One map task: real records plus the datanodes holding them."""

    index: int
    records: tuple
    nbytes: float
    holders: tuple[DataNode, ...]

    @property
    def task_id(self) -> str:
        return f"m-{self.index:05d}"


@dataclass
class _MapOutput:
    """Where a finished map left its partitioned intermediate data."""

    spec: _MapSpec
    tracker: "TaskTracker"
    #: One :class:`~repro.mapreduce.api.KeyRun` per reduce partition; a
    #: map-only job has the one "partition" HDFS gets as it is: the
    #: emitted ``(k, v)`` pairs in emission order.
    partitions: list
    partition_bytes: dict[int, float]
    #: Back-references used by shuffle-time map recovery.
    job: "Job" = None
    report: "JobReport" = None


@dataclass(frozen=True)
class TaskAttempt:
    """Timing record of one executed task."""

    task_id: str
    kind: str                # "map" | "reduce"
    tracker: str
    start: float
    end: float
    input_bytes: float
    output_bytes: float
    locality: str            # "node" | "host" | "remote" | "-"

    @property
    def elapsed(self) -> float:
        return self.end - self.start


@dataclass
class JobReport:
    """Everything measured about one job run."""

    job_name: str
    submitted_at: float
    finished_at: float = 0.0
    map_phase_end: float = 0.0
    n_maps: int = 0
    n_reduces: int = 0
    input_bytes: float = 0.0
    shuffle_bytes: float = 0.0
    output_bytes: float = 0.0
    output_paths: list[str] = field(default_factory=list)
    tasks: list[TaskAttempt] = field(default_factory=list)
    counters: Counters = field(default_factory=Counters)
    #: Scheduler accounting (filled by the slot workers / repro.scheduler).
    pool: str = "default"
    first_task_at: Optional[float] = None
    slot_seconds: float = 0.0
    preempted_tasks: int = 0
    speculated_maps: int = 0
    speculated_reduces: int = 0
    #: Engine bookkeeping, scoped to this *run*: task failures charged to
    #: each tracker (by name).  A tracker at the blacklist limit sits the
    #: rest of the run out; a later run of a same-named job starts clean.
    _tracker_failures: dict[str, int] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    @property
    def elapsed(self) -> float:
        """Total job runtime in simulated seconds — the paper's y-axis."""
        return self.finished_at - self.submitted_at

    @property
    def wait_s(self) -> float:
        """Submission-to-first-task latency (scheduling + localization)."""
        if self.first_task_at is None:
            return 0.0
        return self.first_task_at - self.submitted_at

    @property
    def map_phase_s(self) -> float:
        return self.map_phase_end - self.submitted_at

    @property
    def reduce_phase_s(self) -> float:
        return self.finished_at - self.map_phase_end

    def locality_fractions(self) -> dict[str, float]:
        maps = [t for t in self.tasks if t.kind == "map"]
        if not maps:
            return {}
        out: dict[str, float] = {}
        for t in maps:
            out[t.locality] = out.get(t.locality, 0.0) + 1.0 / len(maps)
        return out


#: Per phase kind: (attempt span, task-done event, speculate event).
_TASK_EVENTS = {
    "map": (EV.TASK_MAP, EV.TASK_MAP_DONE, EV.TASK_MAP_SPECULATE),
    "reduce": (EV.TASK_REDUCE, EV.TASK_REDUCE_DONE,
               EV.TASK_REDUCE_SPECULATE),
}


class _Phase:
    """Live state of one phase (map or reduce) of one job run.

    The only carrier of phase state: whoever staffs the phase — the
    runner's own workers or the scheduler's slot pool — and every attempt
    it runs read and mutate this one object.  Map items are
    :class:`_MapSpec`, reduce items are partition numbers.
    """

    def __init__(self, sim, job: Job, report: JobReport, kind: str,
                 items, outputs: list[_MapOutput], span: Optional[Span]):
        self.job = job
        self.report = report
        self.kind = kind                   # "map" | "reduce"
        self.pending = list(items)         # the task queue
        self.running: dict = {}            # index -> (start, item)
        self.finished: set[int] = set()
        self.duplicated: set[int] = set()  # index with a backup launched
        self.durations: list[float] = []   # of completed tasks
        #: index -> attempt token: racing reduce attempts never write the
        #: same ``part-r-NNNNN`` file twice (maps never commit).
        self.committing: dict[int, object] = {}
        self.attempts: dict[int, int] = {}  # index -> failed attempts
        #: Failed attempts waiting out their backoff; holds the phase open
        #: so idle workers don't conclude the queue is drained.
        self.retrying = 0
        #: The phase ends when every *task* has finished — idle trackers
        #: still napping between heartbeats must not hold the job open.
        self.remaining = len(self.pending)
        self.done: Event = sim.event()     # fails when the job must fail
        if not self.pending:
            self.done.succeed(None)
        #: The job's map outputs: the map phase fills the list, the reduce
        #: phase shuffles from it.
        self.outputs = outputs
        self.span = span                   # parent of task-attempt spans
        #: Set by the staffing strategy: called when a retried task is
        #: back in ``pending`` (restaff / wake the slot pool).
        self.on_requeue = lambda: None

    def index(self, item) -> int:
        return item.index if self.kind == "map" else item

    def task_id(self, item) -> str:
        return item.task_id if self.kind == "map" else f"r-{item:05d}"


def _slots(tracker: "TaskTracker", kind: str) -> Resource:
    return tracker.map_slots if kind == "map" else tracker.reduce_slots


class MapReduceRunner:
    """Job engine bound to one :class:`HadoopVirtualCluster`."""

    #: Heartbeats a requeued task waits through a total tracker outage
    #: before the job is declared dead (recovery rejoins usually land
    #: within a fault's duration; the cap keeps dead clusters finite).
    MAX_TRACKER_WAITS = 600

    def __init__(self, cluster: "HadoopVirtualCluster"):
        self.cluster = cluster
        self.sim = cluster.sim
        self.tracer = cluster.tracer
        self.metrics = cluster.telemetry.metrics
        self._rng = cluster.datacenter.rng.stream(
            f"mapreduce/heartbeat/{cluster.name}")

    # -- public ------------------------------------------------------------
    def submit(self, job: Job) -> Event:
        """Run ``job``; the event's value is its :class:`JobReport`."""
        return self.sim.process(self._job_proc(job), name=f"job:{job.name}")

    def run_to_completion(self, job: Job) -> JobReport:
        """Submit and drive the simulator until the job finishes."""
        event = self.submit(job)
        self.sim.run_until(event)
        return event.value

    def read_output(self, report: JobReport) -> list[tuple[Any, Any]]:
        """Concatenated output records of a finished job (control-plane
        peek; charges no simulated time)."""
        out: list[tuple[Any, Any]] = []
        # Part-file name order == partition order (output_paths itself
        # lists them in completion order, which scheduling perturbs).
        for path in sorted(report.output_paths):
            out.extend(self.cluster.dfs.peek_records(path))
        return out

    # -- job lifecycle -----------------------------------------------------
    def _job_proc(self, job: Job, report: Optional[JobReport] = None,
                  staff=None, **span_attrs):
        """The one job lifecycle.  ``staff(phase)`` is a generator that
        gets the phase's tasks executed and returns once ``phase.done``
        fired — the only thing the solo runner and the scheduler differ in.
        """
        config = self.cluster.config
        staff = staff or self._run_phase
        if report is None:
            report = JobReport(job_name=job.name, submitted_at=self.sim.now,
                               n_reduces=job.n_reduces)
        self.tracer.emit(self.sim.now, EV.JOB_SUBMIT, job.name,
                         n_reduces=job.n_reduces)
        job_span = self.tracer.begin_span(self.sim.now, EV.JOB_RUN, job.name,
                                          n_reduces=job.n_reduces,
                                          **span_attrs)
        yield self.sim.timeout(config.job_overhead_s / 2)
        yield from self._localize(job)

        specs = self._make_map_specs(job)
        report.n_maps = len(specs)
        report.input_bytes = sum(s.nbytes for s in specs)

        map_span = self.tracer.begin_span(self.sim.now, EV.PHASE_MAP,
                                          job.name, parent=job_span,
                                          n_maps=len(specs))
        maps = _Phase(self.sim, job, report, "map", specs, [], map_span)
        phases = [maps]
        try:
            yield from staff(maps)
            maps.outputs.sort(key=lambda o: o.spec.index)
            report.map_phase_end = self.sim.now
            self.tracer.end_span(map_span, self.sim.now)
            self.tracer.emit(self.sim.now, EV.JOB_MAPS_DONE, job.name,
                             n_maps=len(specs))

            if job.map_only:
                yield from self._write_map_only_output(job, maps.outputs,
                                                       report)
            else:
                reduce_span = self.tracer.begin_span(
                    self.sim.now, EV.PHASE_REDUCE, job.name, parent=job_span,
                    n_reduces=job.n_reduces)
                phases.append(_Phase(self.sim, job, report, "reduce",
                                     range(job.n_reduces), maps.outputs,
                                     reduce_span))
                yield from staff(phases[-1])
                self.tracer.end_span(reduce_span, self.sim.now)

            yield self.sim.timeout(config.job_overhead_s / 2)
        finally:
            # A phase sits in a reference cycle (its ``on_requeue`` closure),
            # so without this the job's whole intermediate data set would
            # wait for a cycle collection.  Rebound, not cleared: a
            # speculative attempt still in flight keeps the list it took.
            for phase in phases:
                phase.outputs = []
        report.finished_at = self.sim.now
        self.tracer.end_span(job_span, self.sim.now, elapsed=report.elapsed)
        self.tracer.emit(self.sim.now, EV.JOB_DONE, job.name,
                         elapsed=report.elapsed)
        self._record_job_metrics(job, report)
        return report

    def _record_job_metrics(self, job: Job, report: JobReport) -> None:
        labels = {"job": job.name}
        m = self.metrics
        m.counter("mapreduce.jobs.completed", "finished jobs").inc()
        m.histogram("mapreduce.job.duration",
                    "job makespan in simulated seconds",
                    labels).observe(report.elapsed)
        m.counter("mapreduce.input.bytes", "bytes read by map tasks",
                  labels).inc(report.input_bytes)
        m.counter("mapreduce.shuffle.bytes", "bytes moved map -> reduce",
                  labels).inc(report.shuffle_bytes)
        m.counter("mapreduce.output.bytes", "bytes written by reduces",
                  labels).inc(report.output_bytes)

    # -- failure handling ---------------------------------------------------
    @staticmethod
    def _vm_live(vm) -> bool:
        return vm.state in (VMState.RUNNING, VMState.MIGRATING)

    def _live_trackers(self) -> list:
        return [t for t in self.cluster.trackers if self._vm_live(t.vm)]

    def _is_blacklisted(self, phase: _Phase,
                        tracker: "TaskTracker") -> bool:
        """Has ``tracker`` failed too many tasks of this job run?"""
        return (phase.report._tracker_failures.get(tracker.name, 0)
                >= self.cluster.config.tracker_blacklist_failures)

    def _record_tracker_failure(self, phase: _Phase,
                                tracker: "TaskTracker") -> None:
        failures = phase.report._tracker_failures
        n = failures[tracker.name] = failures.get(tracker.name, 0) + 1
        if n == self.cluster.config.tracker_blacklist_failures:
            job = phase.job
            self.tracer.emit(self.sim.now, EV.RECOVERY_TRACKER_BLACKLISTED,
                             tracker.name, job=job.name, failures=n)
            self.metrics.counter(
                "recovery.trackers.blacklisted",
                "trackers blacklisted after repeated task failures",
                {"job": job.name}).inc()

    def _retry_backoff(self, attempts: int) -> float:
        """Capped exponential backoff before re-queueing attempt ``n``."""
        config = self.cluster.config
        return min(config.retry_backoff_s * (2 ** max(0, attempts - 1)),
                   config.retry_backoff_cap_s)

    def _handle_task_failure(self, phase: _Phase, item, speculative: bool,
                             tracker: "TaskTracker", cause) -> None:
        """Account one failed/aborted task attempt and requeue it.

        The task re-enters the pending queue after a capped exponential
        backoff; ``phase.retrying`` holds the phase open meanwhile.  When
        the attempt budget (``max_task_retries``) is exhausted — or no live
        tracker remains — the phase's ``done`` event *fails*, failing the
        job.
        """
        self._record_tracker_failure(phase, tracker)
        index, task_id = phase.index(item), phase.task_id(item)
        if speculative:
            # The original attempt is still running; just allow a fresh
            # backup to launch later.
            phase.duplicated.discard(index)
            return
        if index in phase.finished:
            return
        phase.running.pop(index, None)
        attempts = phase.attempts[index] = phase.attempts.get(index, 0) + 1
        if attempts > self.cluster.config.max_task_retries:
            if not phase.done.triggered:
                # A user-code failure already names its task: no rewrap.
                phase.done.fail(cause if isinstance(cause, TaskFailure)
                                else TaskFailure(task_id, cause))
            return
        delay = self._retry_backoff(attempts)
        job = phase.job
        self.tracer.emit(self.sim.now, EV.RECOVERY_TASK_RETRY, task_id,
                         job=job.name, attempt=attempts,
                         tracker=tracker.name, backoff_s=delay,
                         cause=str(cause))
        self.metrics.counter("recovery.task.retries",
                             "task attempts requeued after a failure",
                             {"phase": phase.kind, "job": job.name}).inc()
        phase.retrying += 1
        self.sim.process(self._requeue_proc(phase, item, delay),
                         name=f"{job.name}:retry:{task_id}")

    def _requeue_proc(self, phase: _Phase, item, delay: float,
                      parked: int = 0):
        if delay > 0:
            yield self.sim.timeout(delay)
        phase.retrying -= 1
        if phase.done.triggered:
            return
        live = self._live_trackers()
        usable = [t for t in live if not self._is_blacklisted(phase, t)]
        if not usable:
            task_id = phase.task_id(item)
            if parked >= self.MAX_TRACKER_WAITS:
                phase.done.fail(TaskFailure(
                    task_id, "every live tracker is blacklisted" if live
                    else "no live trackers left"))
                return
            # A transient total tracker outage (say, the lone worker host
            # crashed with a rejoin already scheduled) must not kill the
            # job: park for a heartbeat and look again.  The wait is
            # bounded so a cluster that never recovers still terminates.
            # Blacklisted trackers count as gone: no worker serves them.
            phase.retrying += 1
            self.sim.process(
                self._requeue_proc(phase, item,
                                   self.cluster.config.heartbeat_s,
                                   parked + 1),
                name=f"{phase.job.name}:park:{task_id}")
            return
        if phase.kind == "map":
            # A retried attempt must not try to read its split from a
            # datanode that died meanwhile.
            item = self._with_live_holders(item)
        phase.pending.insert(0, item)
        phase.on_requeue()

    def _with_live_holders(self, spec: _MapSpec) -> _MapSpec:
        """``spec`` with its replica holders refreshed to the live ones."""
        live_holders = tuple(
            dn for dn in spec.holders
            if dn in self.cluster.namenode.datanodes
            and self._vm_live(dn.vm))
        return _MapSpec(spec.index, spec.records, spec.nbytes, live_holders)

    def _localize(self, job: Job):
        """Job localization: every TaskTracker pulls job.jar + config from
        the JobTracker/HDFS before it can run a task of this job.  The
        aggregate volume grows linearly with cluster size, which is what
        makes small jobs slower on larger virtual clusters (Fig. 6).
        """
        config = self.cluster.config
        if config.job_localization_bytes <= 0:
            return
        fabric = self.cluster.datacenter.fabric
        master = self.cluster.master
        pulls = []
        for tracker in self._live_trackers():
            pulls.append(fabric.transfer(
                master.node, tracker.vm.node,
                config.job_localization_bytes,
                name=f"{job.name}:localize:{tracker.name}"))
            pulls.append(tracker.vm.disk_io(
                config.job_localization_bytes,
                name=f"{job.name}:localize"))
        yield self.sim.all_of(pulls)

    # -- splits --------------------------------------------------------------
    def _make_map_specs(self, job: Job) -> list[_MapSpec]:
        namenode = self.cluster.namenode
        blocks = []
        for path in job.input_paths:
            # Hadoop semantics: an input path may be a file or a directory
            # of part files (a previous job's output).
            if namenode.exists(path):
                blocks.extend(namenode.get_file(path).blocks)
            else:
                children = namenode.list_files(prefix=path.rstrip("/") + "/")
                if not children:
                    raise JobConfigError(
                        f"job {job.name!r}: input {path!r} not found")
                for child in children:
                    blocks.extend(namenode.get_file(child).blocks)
        if not blocks:
            # Existing-but-empty input: a zero-map job that succeeds with
            # empty output (Hadoop's behaviour for empty input dirs).
            return []

        if job.force_num_maps is None:
            specs = []
            for i, block in enumerate(blocks):
                holders = tuple(namenode.replicas.get(block.block_id, ()))
                payload = namenode.block_store.get(block)
                specs.append(_MapSpec(i, payload, float(block.size), holders))
            return specs

        # MRBench-style forced map count: repack all records into n groups;
        # each group inherits the replica holders of its dominant block.
        n = job.force_num_maps
        all_records: list = []
        record_home: list[int] = []
        for bi, block in enumerate(blocks):
            payload = namenode.block_store.get(block)
            all_records.extend(payload)
            record_home.extend([bi] * len(payload))
        total_bytes = float(sum(b.size for b in blocks))
        if not all_records:
            raise JobConfigError(f"job {job.name!r}: empty input")
        specs = []
        chunk = -(-len(all_records) // n)
        for i in range(n):
            lo, hi = i * chunk, min((i + 1) * chunk, len(all_records))
            group = tuple(all_records[lo:hi])
            if lo >= len(all_records):
                group = ()
            home_block = blocks[record_home[lo]] if lo < len(all_records) \
                else blocks[0]
            holders = tuple(self.cluster.namenode.replicas.get(
                home_block.block_id, ()))
            nbytes = total_bytes * (len(group) / len(all_records))
            specs.append(_MapSpec(i, group, nbytes, holders))
        return specs

    # -- solo staffing: ephemeral per-phase workers --------------------------
    def _run_phase(self, phase: _Phase):
        def spawn(trackers):
            for tracker in trackers:
                for slot in range(_slots(tracker, phase.kind).capacity):
                    self.sim.process(
                        self._worker(phase, tracker),
                        name=f"{phase.job.name}:{phase.kind}worker:"
                             f"{tracker.name}:{slot}")

        # A requeued task may find every original worker exited (they
        # leave when the queue drains); restaff the live trackers.
        phase.on_requeue = lambda: spawn(
            t for t in self._live_trackers()
            if not self._is_blacklisted(phase, t))
        spawn(self.cluster.trackers)
        yield phase.done

    def _worker(self, phase: _Phase, tracker: "TaskTracker"):
        config = self.cluster.config
        report = phase.report
        slots = _slots(tracker, phase.kind)
        while (phase.pending or phase.retrying > 0
               or (config.speculative_execution and phase.remaining > 0)):
            if tracker.vm.state in (VMState.FAILED, VMState.STOPPED):
                break  # dead trackers take no more tasks (migration is
                       # transparent: MIGRATING VMs keep working)
            if self._is_blacklisted(phase, tracker):
                break  # too many failures: this tracker sits the job out
            # Tasks are handed out on tracker heartbeats: whichever tracker
            # heartbeats next gets the work, so assignment order is random
            # across trackers (and the queue may drain while we wait).
            yield self.sim.timeout(
                float(self._rng.uniform(0.0, config.heartbeat_s)))
            picked = self._pick(phase, tracker)
            if picked is None:
                if phase.remaining > 0 and (config.speculative_execution
                                            or phase.retrying > 0):
                    continue  # keep heartbeating; stragglers or
                              # requeued retries may appear
                break
            yield slots.acquire()
            # A running task keeps the whole VM busy (JVM heap, buffers)
            # for its entire duration, not only during CPU bursts — this
            # drives the dirty-page rate seen by live migration.
            tracker.vm.activity += 1
            claimed = self.sim.now
            if report.first_task_at is None:
                report.first_task_at = claimed
            try:
                yield self.sim.timeout(config.task_startup_s)
                yield from self._execute(phase, tracker, *picked)
            finally:
                report.slot_seconds += self.sim.now - claimed
                tracker.vm.activity -= 1
                slots.release()

    # -- task selection ------------------------------------------------------
    def _pick(self, phase: _Phase, tracker: "TaskTracker"):
        """``(item, locality, speculative)`` for ``tracker``'s next attempt:
        a queued task, else a backup of a straggler, else None."""
        if phase.kind == "map":
            item, locality = self._pick_map_task(tracker, phase.pending)
        else:
            item = phase.pending.pop(0) if phase.pending else None
            locality = "-"
        if item is not None:
            return item, locality, False
        item = self._pick_speculative(phase)
        if item is None:
            return None
        if phase.kind == "map":
            locality = self._locality_of(tracker, item)
        return item, locality, True

    def _pick_speculative(self, phase: _Phase):
        """The longest-running straggler eligible for a backup attempt."""
        config = self.cluster.config
        if not config.speculative_execution or not phase.durations:
            return None
        mean = sum(phase.durations) / len(phase.durations)
        threshold = config.speculative_slowdown * mean
        now = self.sim.now
        candidates = [
            (now - start, index, item)
            for index, (start, item) in phase.running.items()
            if index not in phase.finished
            and index not in phase.duplicated
            and (now - start) > threshold]
        if not candidates:
            return None
        _age, index, item = max(candidates, key=lambda trip: trip[0])
        phase.duplicated.add(index)
        if phase.kind == "map":
            phase.report.speculated_maps += 1
        else:
            phase.report.speculated_reduces += 1
        _, _, speculate_kind = _TASK_EVENTS[phase.kind]
        self.tracer.emit(now, speculate_kind, phase.task_id(item))
        self.metrics.counter(
            "mapreduce.tasks.speculated",
            "backup attempts launched for straggler tasks",
            {"phase": phase.kind, "job": phase.job.name}).inc()
        return item

    def _pick_map_task(self, tracker: "TaskTracker",
                       pending: list[_MapSpec]) -> tuple[Optional[_MapSpec], str]:
        """Locality-aware task selection for one tracker."""
        if not pending:
            return None, "-"
        if self.cluster.config.locality_aware:
            levels = (("node", self._is_node_local),
                      ("host", self._is_host_local))
            if self.cluster.multi_rack:
                # node > host > rack > off-rack: the rack tier only
                # exists on multi-rack topologies, so flat/one-rack runs
                # keep the exact pre-rack decision sequence.
                levels += (("rack", self._is_rack_local),)
            for level, match in levels:
                for spec in pending:
                    if match(tracker, spec):
                        pending.remove(spec)
                        return spec, level
            spec = pending.pop(0)
            return spec, "remote"
        spec = pending.pop(0)
        return spec, self._locality_of(tracker, spec)

    @staticmethod
    def _is_node_local(tracker: "TaskTracker", spec: _MapSpec) -> bool:
        return any(dn.vm is tracker.vm for dn in spec.holders)

    @staticmethod
    def _is_host_local(tracker: "TaskTracker", spec: _MapSpec) -> bool:
        return any(dn.vm.host is tracker.vm.host for dn in spec.holders)

    @staticmethod
    def _is_rack_local(tracker: "TaskTracker", spec: _MapSpec) -> bool:
        rack = tracker.vm.host.rack
        return rack is not None and any(dn.vm.host.rack is rack
                                        for dn in spec.holders)

    def _locality_of(self, tracker, spec) -> str:
        if self._is_node_local(tracker, spec):
            return "node"
        if self._is_host_local(tracker, spec):
            return "host"
        if self.cluster.multi_rack and self._is_rack_local(tracker, spec):
            return "rack"
        return "remote"

    # -- the task attempt ----------------------------------------------------
    def _execute(self, phase: _Phase, tracker: "TaskTracker", item,
                 locality: str, speculative: bool,
                 killed: Optional[Event] = None):
        """Run one attempt of ``item`` on ``tracker`` whose JVM is up.

        The caller holds the slot and has paid ``task_startup_s``.  The
        attempt races its tracker dying (a failure: retried with backoff)
        and, when given, the ``killed`` event (a preemption: the task goes
        back where it was found, nothing is charged to the tracker).
        Returns True when the attempt was preempted.
        """
        job, report, kind = phase.job, phase.report, phase.kind
        index, task_id = phase.index(item), phase.task_id(item)
        attempt_kind, done_kind, _ = _TASK_EVENTS[kind]
        # Only map events carry a locality (attribute order is pinned).
        attrs = {"tracker": tracker.name}
        if kind == "map":
            attrs["locality"] = locality
        attrs["speculative"] = speculative
        start = self.sim.now
        if not speculative:
            phase.running[index] = (start, item)
        token = object()
        attempt_span = self.tracer.begin_span(
            start, attempt_kind, task_id, parent=phase.span, **attrs,
            job=job.name)
        if kind == "map":
            gen = self._run_map_task(job, tracker, item, locality, report)
        else:
            gen = self._run_reduce_task(phase, tracker, item, token,
                                        attempt_span)
        stop = tracker.vm.failure_event()
        if killed is not None:
            stop = self.sim.any_of([killed, stop])
        failure = None
        try:
            # An attempt that already holds the commit token has
            # (partially) written the output file; it must finish even if
            # its tracker dies — single-writer commit.
            result, stopped = yield from _drive_racing(
                self.sim, gen, stop,
                abortable=lambda: phase.committing.get(index) is not token)
            if stopped and (killed is None or not killed.triggered):
                failure = VMStateError(
                    f"{tracker.name}: tracker died mid-attempt")
        except (VMStateError, TaskFailure) as exc:
            result, stopped, failure = None, False, exc
        if failure is not None:
            if phase.committing.get(index) is token:
                del phase.committing[index]
            self.tracer.end_span(attempt_span, self.sim.now, failed=True)
            self._handle_task_failure(phase, item, speculative, tracker,
                                      failure)
            return False
        # ``won``: this attempt's result is the one the job keeps.  A
        # reduce that lost the commit race returns no result.
        won = (not stopped and result is not None
               and index not in phase.finished)
        self.tracer.end_span(attempt_span, self.sim.now, won=won,
                             **({"preempted": True} if stopped else {}))
        self.metrics.histogram(
            "mapreduce.task.duration", "task attempt duration",
            {"phase": kind, "job": job.name}).observe(self.sim.now - start)
        if stopped:
            if speculative:
                phase.duplicated.discard(index)
            elif index not in phase.finished:
                phase.running.pop(index, None)
                phase.pending.insert(0, item)
            return True
        if not won:
            return False  # the other attempt won the race
        if speculative:
            # The payoff side of the straggler counters.
            self.metrics.counter(
                "mapreduce.speculation.wins",
                "speculative attempts that finished before the original",
                {"phase": kind, "job": job.name}).inc()
        phase.finished.add(index)
        phase.running.pop(index, None)
        phase.durations.append(self.sim.now - start)
        if kind == "map":
            phase.outputs.append(result)
            nbytes_in = item.nbytes
            nbytes_out = sum(result.partition_bytes.values())
        else:
            nbytes_in, nbytes_out = result
        report.tasks.append(TaskAttempt(
            task_id=task_id, kind=kind, tracker=tracker.name, start=start,
            end=self.sim.now, input_bytes=nbytes_in, output_bytes=nbytes_out,
            locality=locality))
        self.tracer.emit(self.sim.now, done_kind, task_id, **attrs)
        phase.remaining -= 1
        if phase.remaining == 0 and not phase.done.triggered:
            phase.done.succeed(None)
        return False

    def _run_map_task(self, job: Job, tracker: "TaskTracker", spec: _MapSpec,
                      locality: str, report: JobReport, count: bool = True):
        vm = tracker.vm
        # 1. read the split (from a still-live replica holder: a datanode
        # may have died since the specs were built).
        live_holders = tuple(dn for dn in spec.holders
                             if self._vm_live(dn.vm))
        if locality == "node" and any(dn.vm is vm for dn in live_holders):
            local = next(dn for dn in live_holders if dn.vm is vm)
            yield local.vm.disk_io(spec.nbytes, name=f"split:{spec.task_id}")
        elif live_holders:
            rack = vm.host.rack
            source = next(
                (dn for dn in live_holders if dn.vm.host is vm.host),
                next((dn for dn in live_holders
                      if rack is not None and dn.vm.host.rack is rack),
                     live_holders[0]))
            pending = [source.vm.disk_io(spec.nbytes,
                                         name=f"split:{spec.task_id}")]
            pending.append(self.cluster.datacenter.fabric.transfer(
                source.vm.node, vm.node, spec.nbytes,
                name=f"splitxfer:{spec.task_id}"))
            yield self.sim.all_of(pending)
        # 2. CPU.
        work = (job.map_cpu_per_byte * spec.nbytes
                + job.map_cpu_per_record * len(spec.records))
        if work > 0:
            yield vm.compute(work, name=f"map:{spec.task_id}")
        # 3. real map + combine, 4. partition: cost already charged.
        partitions, partition_bytes, n_mapped, counters = self._map_result(
            job, spec)
        # 5. spill.
        spill = sum(partition_bytes.values())
        if spill > 0 and not job.map_only:
            yield vm.disk_io(spill, name=f"spill:{spec.task_id}")
        # Counters land only when the attempt completes: a preempted or
        # superseded attempt must contribute nothing to the job totals.
        # ``count=False`` is the shuffle-recovery re-run, whose original
        # attempt already counted — it must not double-count either.
        if count:
            report.counters.merge(counters)
            report.counters.incr("job", "map_input_records",
                                 len(spec.records))
            report.counters.incr("job", "map_output_records", n_mapped)
        return _MapOutput(spec, tracker, partitions, partition_bytes,
                          job=job, report=report)

    def _map_result(self, job: Job, spec: _MapSpec):
        """The functional half of a map attempt.  Intermediate pairs exist
        only as columns and key-grouped runs; a map-only job's pairs *are*
        its output.  A raise from the mapper, combiner, partitioner or
        ``intermediate_sizeof`` is the attempt's :class:`TaskFailure`.
        :meth:`Job.resubmit_to` copies run it once per split payload object
        and combiner state; a failure is never memoised."""
        combiner = job.combiner if self.cluster.config.use_combiner else None
        key = (spec.index, combiner is not None)
        hit = job._recall(key, spec.records)
        if hit is not None:
            return hit
        ctx = Context(task_id=spec.task_id, config=job.params)
        if job.map_only:
            drain = Context.drain
        elif combiner is None:
            drain = Context.drain_counted
        else:
            drain = Context.drain_grouped
        sizeof = job.intermediate_sizeof
        try:
            mapped = run_mapper(job.mapper(), spec.records, ctx, drain)
            if job.map_only:
                n_mapped = len(mapped)
                pairs = combine(combiner, mapped, ctx)
                partitions = [pairs]
                sizes = {0: float(sum(map(sizeof, pairs)))}
            elif combiner is None:
                counted, value = mapped
                partitions = partition_groups(counted, job.partitioner,
                                              job.n_reduces, value)
                n_mapped = sum(len(run.values) for run in partitions)
                sizes = partition_bytes(partitions, sizeof, value)
            else:
                n_mapped = sum(map(len, mapped.values()))
                if mapped:
                    mapped = run_reducer(combiner(), sort_groups(mapped),
                                         ctx, Context.drain_grouped)
                partitions = partition_groups(mapped, job.partitioner,
                                              job.n_reduces)
                sizes = partition_bytes(partitions, sizeof)
        except Exception as exc:
            raise TaskFailure(spec.task_id, exc) from exc
        return job._remember(key, (partitions, sizes, n_mapped,
                                   ctx.counters), spec.records)

    def _run_reduce_task(self, phase: _Phase, tracker: "TaskTracker",
                         partition: int, token: object,
                         attempt_span: Optional[Span] = None):
        job, report, map_outputs = phase.job, phase.report, phase.outputs
        vm = tracker.vm
        config = self.cluster.config
        # 1. shuffle: fetch this partition from every map's VM.
        fetch_sem = Resource(self.sim, config.shuffle_parallel_copies,
                             name=f"{vm.name}.fetchers")
        fetches = [self.sim.process(
            self._fetch(output, partition, vm, fetch_sem, attempt_span,
                        job_name=job.name),
            name=f"fetch:{output.spec.task_id}:r{partition}")
            for output in map_outputs
            if output.partition_bytes.get(partition, 0.0) > 0]
        if fetches:
            yield self.sim.all_of(fetches)
        runs = [output.partitions[partition] for output in map_outputs]
        nbytes_in = sum(output.partition_bytes.get(partition, 0.0)
                        for output in map_outputs)
        report.shuffle_bytes += nbytes_in
        self.metrics.histogram(
            "mapreduce.shuffle.partition_mib",
            "shuffle MiB fetched per reduce partition",
            {"job": job.name}).observe(nbytes_in / C.MiB)
        # 2. merge-sort + reduce CPU.
        n = sum(len(run.values) for run in runs)
        work = (job.reduce_cpu_per_byte * nbytes_in
                + job.reduce_cpu_per_record * n
                + C.SORT_CPU_PER_RECORD * n * math.log2(n + 2))
        if work > 0:
            yield vm.compute(work, name=f"reduce:r{partition}")
        # Commit protocol: only one attempt per partition may write the
        # output file (and merge its counters).  A racing speculative
        # attempt that arrives second stops here — before the user's
        # reducer runs, so a loser can neither burn host CPU nor fail a
        # partition that is already committed.  Nothing yields between
        # this check and taking the token.
        if partition in phase.finished or partition in phase.committing:
            return None
        # 3. real reduce, fed by the merge of every map's run.
        out_pairs, counters = self._reduce_result(job, partition, runs)
        phase.committing[partition] = token
        report.counters.merge(counters)
        report.counters.incr("job", "reduce_input_records", n)
        report.counters.incr("job", "reduce_output_records", len(out_pairs))
        # 4. replicated output write.
        path = f"{job.output_path}/part-r-{partition:05d}"
        f = yield self.cluster.dfs.write_file(
            vm, path, out_pairs, sizeof=job.output_sizeof,
            replication=job.output_replication)
        report.output_paths.append(path)
        report.output_bytes += f.size
        return nbytes_in, float(f.size)

    def _reduce_result(self, job: Job, partition: int, runs: list):
        """The functional half of a reduce attempt; a :meth:`Job.resubmit_to`
        copy runs it once per identical sequence of input runs."""
        hit = job._recall(partition, *runs)
        if hit is not None:
            return hit
        ctx = Context(task_id=f"r-{partition:05d}", config=job.params)
        try:
            reducer = (job.reducer or Reducer)()
            out_pairs = run_reducer(reducer, merge_runs(runs), ctx)
        except Exception as exc:
            raise TaskFailure(f"r-{partition:05d}", exc) from exc
        return job._remember(partition, (out_pairs, ctx.counters), *runs)

    def _fetch(self, output: _MapOutput, partition: int, to_vm, sem: Resource,
               parent_span: Optional[Span] = None, job_name: str = ""):
        """One shuffle fetch, bounded by the reduce's parallel-copy limit.

        If the map's VM died since the map ran, its intermediate output is
        gone; Hadoop re-executes the map, which we do on the fetching VM
        (charging startup, the split read and map CPU again) before
        copying.  The source can also die *between* the liveness check and
        the read — or between a recovery re-run and the fetch that needed
        it — so the whole sequence retries until the attempt budget runs
        out rather than crashing the fetch process.
        """
        config = self.cluster.config
        # A cancel landing in the pending ``acquire()`` holds no permit.
        yield sem.acquire()
        try:
            for _ in range(config.max_task_retries + 1):
                if not self._vm_live(output.tracker.vm):
                    yield from self._recover_map_output(output, to_vm)
                nbytes = output.partition_bytes[partition]
                span = self.tracer.begin_span(
                    self.sim.now, EV.SHUFFLE_FETCH,
                    f"{output.spec.task_id}:r{partition}",
                    parent=parent_span, tracker=to_vm.name,
                    src=output.tracker.vm.name, nbytes=nbytes,
                    job=job_name)
                try:
                    yield self.sim.timeout(C.SHUFFLE_FETCH_OVERHEAD_S)
                    pending = [output.tracker.vm.disk_io(
                        nbytes, name=f"shufread:{output.spec.task_id}")]
                    if output.tracker.vm.node is not to_vm.node:
                        pending.append(
                            self.cluster.datacenter.fabric.transfer(
                                output.tracker.vm.node, to_vm.node, nbytes,
                                name=f"shuffle:{output.spec.task_id}"
                                     f":r{partition}"))
                    yield self.sim.all_of(pending)
                except VMStateError:
                    # The source died under us; loop back, recover the map
                    # output on a live VM and try again.
                    self.tracer.end_span(span, self.sim.now, failed=True)
                    continue
                self.tracer.end_span(span, self.sim.now)
                return None
            raise TaskFailure(f"{output.spec.task_id}:r{partition}",
                              "shuffle source kept failing")
        finally:
            sem.release()

    def _recover_map_output(self, output: _MapOutput, to_vm):
        """Re-execute a lost map task on ``to_vm`` (Hadoop's map re-run).

        The functional output is recomputed deterministically from the
        (replicated) input split; the re-executed task's costs — startup,
        split read and map CPU — are charged to the recovering VM.  Its
        counters are *not* merged again (``count=False``): the original
        attempt already counted.

        Raises :class:`VMStateError` when ``to_vm`` itself is dead or no
        longer a tracker (a double failure): the caller's reduce attempt
        is doomed and must be retried on a live tracker.
        """
        spec = output.spec
        tracker = next((t for t in self.cluster.trackers if t.vm is to_vm),
                       None)
        if tracker is None or not self._vm_live(to_vm):
            raise VMStateError(
                f"{to_vm.name}: cannot recover {spec.task_id}: "
                "recovering tracker is dead")
        self.tracer.emit(self.sim.now, EV.TASK_MAP_RECOVER, spec.task_id,
                         on=to_vm.name, lost_with=output.tracker.vm.name)
        yield self.sim.timeout(self.cluster.config.task_startup_s)
        fresh_spec = self._with_live_holders(spec)
        locality = self._locality_of(tracker, fresh_spec)
        job = output.job
        recovered = yield from self._run_map_task(job, tracker, fresh_spec,
                                                  locality, output.report,
                                                  count=False)
        output.tracker = tracker
        output.partitions = recovered.partitions
        output.partition_bytes = recovered.partition_bytes

    # -- map-only output --------------------------------------------------------
    def _write_map_only_output(self, job: Job, map_outputs: list[_MapOutput],
                               report: JobReport):
        for output in map_outputs:
            rows = output.partitions[0]
            path = f"{job.output_path}/part-m-{output.spec.index:05d}"
            f = yield self.cluster.dfs.write_file(
                output.tracker.vm, path, rows, sizeof=job.output_sizeof,
                replication=job.output_replication)
            report.output_paths.append(path)
            report.output_bytes += f.size
