"""JobScheduler: the JobTracker's multi-job slot arbiter.

Execution model
---------------
The scheduler is the *staffing strategy* for concurrent jobs; everything
beneath it — the job lifecycle, task selection, the task attempt, retries
and blacklisting — is :class:`MapReduceRunner`'s one engine over its
``_Phase`` objects, so the functional output of every job is bit-identical
to a solo :class:`~repro.mapreduce.local.LocalJobRunner` run.

Each submitted job runs the runner's job lifecycle, which *offers* each
phase to the scheduler (:meth:`JobScheduler._offer`).  The scheduler owns
one pool of slot workers per cluster — one perpetual process per
(TaskTracker, kind, slot), exactly Hadoop's slot model.  Each worker loops:
park while no job offers dispatchable work of its kind, pay a heartbeat
latency, ask the policy which job gets the slot, and run one attempt of
that job's offered phase, wrapped in the scheduler's own accounting
(time-weighted slot occupancy, per-pool shares, the kill registry).

Determinism: workers draw heartbeat latencies from their *own* named RNG
stream (``scheduler/heartbeat/<cluster>``), so single-job runs through the
plain runner keep their exact timing.

Preemption (fair scheduler with ``preemption_timeout_s`` pools) kills the
youngest *map* tasks of over-share pools: the killed attempt's in-flight
operation is cancelled (its virt/net flows close and bill only the work
actually done) and the task returns to its job's pending queue.  Reduce
tasks are never killed — re-shuffling is too expensive, as in Hadoop — so
reduce min-shares are enforced at assignment time only.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.errors import SimulationError
from repro.mapreduce.job import Job
from repro.mapreduce.runner import (JobReport, MapReduceRunner, _Phase,
                                    _slots)
from repro.scheduler.policies import (FifoScheduler, SchedulingPolicy,
                                      _pool_demand, _pool_running)
from repro.scheduler.report import JobStats, SchedulerReport
from repro.sim.kernel import Event
from repro.telemetry import events as EV
from repro.virt.vm import VMState


class JobExecution:
    """Scheduler-side state of one submitted job."""

    def __init__(self, job: Job, pool: str, seq: int, report: JobReport):
        self.job = job
        self.pool = pool
        self.seq = seq
        self.report = report
        #: The phase currently offered to the slot pool (None before the
        #: maps, between phases, while map-only output is written, after).
        self.phase: Optional[_Phase] = None
        #: The job's live map-output list (the phases' ``outputs``).
        self.map_outputs: list = []
        self.running = {"map": 0, "reduce": 0}
        self.done: Optional[Event] = None

    def pending_count(self, kind: str) -> int:
        phase = self.phase
        if phase is None or phase.kind != kind:
            return 0
        return len(phase.pending)

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<JobExecution {self.job.name} pool={self.pool} "
                f"phase={self.phase and self.phase.kind}>")


class _RunningTask:
    """Registry entry for one in-flight (preemptible) map attempt."""

    __slots__ = ("ex", "task_id", "start", "kill", "speculative")

    def __init__(self, ex: JobExecution, task_id: str, start: float,
                 kill: Event, speculative: bool):
        self.ex = ex
        self.task_id = task_id
        self.start = start
        self.kill = kill
        self.speculative = speculative


class JobScheduler:
    """Concurrent job admission + slot arbitration for one cluster."""

    def __init__(self, cluster, policy: Optional[SchedulingPolicy] = None,
                 runner: Optional[MapReduceRunner] = None):
        self.cluster = cluster
        self.sim = cluster.sim
        self.tracer = cluster.tracer
        self.policy = policy or FifoScheduler()
        self.runner = runner or MapReduceRunner(cluster)
        self._rng = cluster.datacenter.rng.stream(
            f"scheduler/heartbeat/{cluster.name}")
        self.report = SchedulerReport(policy=self.policy.name,
                                      cluster=cluster.name)
        self._jobs: list[JobExecution] = []
        self._active: list[JobExecution] = []
        self._seq = 0
        self._work_signal: dict[str, Event] = {"map": self.sim.event(),
                                               "reduce": self.sim.event()}
        self._parked = {"map": 0, "reduce": 0}
        self._running_maps: list[_RunningTask] = []
        self._workers_started = False
        self._monitor_alive = False
        self._stamp = self.sim.now

    # -- public ------------------------------------------------------------
    def submit(self, job: Job, pool: str = "default") -> Event:
        """Admit ``job`` into ``pool``; the returned event's value is its
        :class:`JobReport` once the job finishes."""
        ex = JobExecution(job, pool, self._seq,
                          JobReport(job_name=job.name,
                                    submitted_at=self.sim.now,
                                    n_reduces=job.n_reduces, pool=pool))
        self._seq += 1
        self.policy.register_job(ex)
        self._accrue()
        self._jobs.append(ex)
        self._active.append(ex)
        if self.report.started_at is None:
            self.report.started_at = self.sim.now
        self._ensure_workers()
        self._ensure_monitor()
        ex.done = self.sim.process(self._job_driver(ex),
                                   name=f"sched:{job.name}")
        self.tracer.emit(self.sim.now, EV.SCHEDULER_SUBMIT, job.name,
                         pool=pool, policy=self.policy.name)
        return ex.done

    def finalize(self) -> SchedulerReport:
        """The report, once every submitted job has finished (run the
        simulator until their events have fired first)."""
        if self._active:
            raise SimulationError(
                f"{len(self._active)} jobs still active; run the "
                f"simulator until they finish first")
        self._accrue()
        self.report.finished_at = max(
            (ex.report.finished_at for ex in self._jobs),
            default=self.sim.now)
        return self.report

    # -- live metrics (tuner hooks) ---------------------------------------
    def total_slots(self, kind: str) -> int:
        total = 0
        for tracker in self.cluster.trackers:
            if tracker.vm.state in (VMState.FAILED, VMState.STOPPED):
                continue
            if tracker.draining:
                continue  # scale-in: no longer part of the schedulable pool
            total += _slots(tracker, kind).capacity
        return total

    def backlog(self, kind: str) -> int:
        """Dispatchable-but-unassigned tasks of ``kind`` right now."""
        return sum(ex.pending_count(kind) for ex in self._active)

    # -- elastic membership ------------------------------------------------
    def attach_tracker(self, tracker) -> None:
        """Start slot workers for a tracker joined after the first submit
        (elastic scale-out).  Before workers exist this is a no-op — the
        tracker is picked up by :meth:`_ensure_workers` with the rest.
        """
        if not self._workers_started:
            return
        if self.cluster.recovery is not None:
            self.cluster.watch_tracker(tracker)
        self._start_workers(tracker)

    def tracker_quiescent(self, tracker) -> bool:
        """True when the tracker can be retired without disturbing any
        active job: nothing running on its VM and no active job still
        holds shuffle inputs (map outputs) produced there."""
        if tracker.vm.activity > 0:
            return False
        for ex in self._active:
            for output in ex.map_outputs:
                if output.tracker is tracker:
                    return False
        return True

    # -- job lifecycle -----------------------------------------------------
    def _job_driver(self, ex: JobExecution):
        report = yield from self.runner._job_proc(
            ex.job, ex.report, lambda phase: self._offer(ex, phase),
            pool=ex.pool, policy=self.policy.name)
        self._accrue()
        self._active.remove(ex)
        # Slot workers keep their last ``ex`` in a frame: let go of the
        # job's intermediate data now, as ``_job_proc`` did on its side.
        ex.map_outputs = []
        self._record(ex)
        return report

    def _offer(self, ex: JobExecution, phase: _Phase):
        """Staff ``phase`` from the slot pool: expose it to the workers,
        wake them (now, and whenever a retried task is requeued), and wait
        for its last task."""
        phase.on_requeue = lambda: self._signal(phase.kind)
        self._accrue()
        ex.phase, ex.map_outputs = phase, phase.outputs
        self._signal(phase.kind)
        yield phase.done
        self._accrue()
        ex.phase = None

    def _record(self, ex: JobExecution) -> None:
        r = ex.report
        self.report.jobs.append(JobStats(
            job_name=r.job_name, pool=ex.pool, submitted_at=r.submitted_at,
            finished_at=r.finished_at, wait_s=r.wait_s, elapsed=r.elapsed,
            slot_seconds=r.slot_seconds, preempted_tasks=r.preempted_tasks,
            speculated_tasks=r.speculated_maps + r.speculated_reduces))
        stats = self.report.pool(ex.pool)
        stats.n_jobs += 1
        stats.wait_s_total += r.wait_s
        stats.elapsed_total += r.elapsed
        stats.slot_seconds += r.slot_seconds

    # -- slot workers ------------------------------------------------------
    def _ensure_workers(self) -> None:
        if self._workers_started:
            return
        self._workers_started = True
        # Heartbeat-based failure detection: dead trackers are reaped and
        # their datanodes' blocks re-replicated in the background.
        self.cluster.arm_recovery()
        for tracker in self.cluster.trackers:
            self._start_workers(tracker)

    def _start_workers(self, tracker) -> None:
        for kind in ("map", "reduce"):
            for slot in range(_slots(tracker, kind).capacity):
                self.sim.process(
                    self._slot_worker(tracker, kind),
                    name=f"sched:{kind}slot:{tracker.name}:{slot}")

    def _signal(self, kind: str) -> None:
        wake = self._work_signal[kind]
        self._work_signal[kind] = self.sim.event()
        if not wake.triggered:
            wake.succeed(None)

    def _dispatchable(self, kind: str) -> tuple[list, list]:
        """(jobs with pending tasks, jobs with only speculation left)."""
        config = self.cluster.config
        pending, spec_only = [], []
        for ex in self._active:
            phase = ex.phase
            if phase is None or phase.kind != kind:
                continue
            if phase.pending:
                pending.append(ex)
            elif config.speculative_execution and phase.remaining > 0:
                spec_only.append(ex)
        return pending, spec_only

    def _slot_worker(self, tracker, kind: str):
        config = self.cluster.config
        while True:
            if tracker.vm.state in (VMState.FAILED, VMState.STOPPED):
                break  # dead trackers take no more tasks
            if tracker.draining:
                break  # scale-in: finish nothing new, let the pool retire us
            pending, spec_only = self._dispatchable(kind)
            if not pending and not spec_only:
                self._accrue()
                self._parked[kind] += 1
                wake = self._work_signal[kind]
                yield wake
                self._accrue()
                self._parked[kind] -= 1
                continue
            # Tasks are handed out on tracker heartbeats: whichever tracker
            # heartbeats next gets the slot's assignment.
            yield self.sim.timeout(
                float(self._rng.uniform(0.0, config.heartbeat_s)))
            pending, spec_only = self._dispatchable(kind)
            total = self.total_slots(kind)
            if pending:
                ex = self.policy.select(pending, kind, active=self._active,
                                        total_slots=total)
                if ex is None:
                    continue
                yield from self._run_slot(ex, tracker, kind)
                continue
            # No queued tasks anywhere: offer the slot for backup attempts
            # of stragglers, in submission order.
            for ex in sorted(spec_only, key=lambda e: e.seq):
                ran = yield from self._run_slot(ex, tracker, kind)
                if ran:
                    break

    def _run_slot(self, ex: JobExecution, tracker, kind: str):
        """Run one attempt of ``ex``'s offered phase in this slot; False
        when the job had nothing for this tracker."""
        phase = ex.phase
        self._accrue()
        if self.runner._is_blacklisted(phase, tracker):
            return False  # too many failures: sit this job out
        picked = self.runner._pick(phase, tracker)
        if picked is None:
            return False
        item, _locality, speculative = picked
        slots = _slots(tracker, kind)
        yield slots.acquire()
        self._accrue()
        ex.running[kind] += 1
        tracker.vm.activity += 1
        if ex.report.first_task_at is None:
            ex.report.first_task_at = self.sim.now
        record = None
        try:
            yield self.sim.timeout(self.cluster.config.task_startup_s)
            if kind == "map":
                # Preemptible from here on: an attempt still booting its
                # JVM is not in the kill registry.
                record = _RunningTask(ex, item.task_id, self.sim.now,
                                      self.sim.event(), speculative)
                self._running_maps.append(record)
            preempted = yield from self.runner._execute(
                phase, tracker, *picked, killed=record and record.kill)
            if preempted:
                self._count_preemption(ex, item.task_id)
            return True
        finally:
            if record is not None:
                self._running_maps.remove(record)
            self._accrue()
            ex.running[kind] -= 1
            tracker.vm.activity -= 1
            slots.release()

    def _count_preemption(self, ex: JobExecution, task_id: str) -> None:
        """Account a killed map attempt (the engine already put the task
        back where the scheduler found it) and re-offer the slot."""
        ex.report.preempted_tasks += 1
        self.report.preemptions += 1
        self.report.pool(ex.pool).preemptions_suffered += 1
        self.runner.metrics.counter(
            "scheduler.preemptions", "map attempts killed by preemption",
            {"pool": ex.pool}).inc()
        self.tracer.emit(self.sim.now, EV.TASK_MAP_PREEMPTED, task_id,
                         job=ex.job.name, pool=ex.pool)
        self._signal("map")

    # -- preemption monitor ------------------------------------------------
    def _ensure_monitor(self) -> None:
        if self._monitor_alive or not self.policy.preemption_enabled:
            return
        self._monitor_alive = True
        self.sim.process(self._preemption_monitor(),
                         name=f"sched:preemption:{self.cluster.name}")

    def _preemption_monitor(self):
        interval = getattr(self.policy, "preemption_check_s", 1.0)
        starved_since: dict[str, float] = {}
        while self._active:
            yield self.sim.timeout(interval)
            self._check_preemption(starved_since)
        self._monitor_alive = False

    def _check_preemption(self, starved_since: dict[str, float]) -> None:
        now = self.sim.now
        active = self._active
        total = self.total_slots("map")
        fair = self.policy.shares(active, "map", total)
        for pool in sorted({ex.pool for ex in active}):
            cfg = self.policy.pool(pool)
            if cfg.preemption_timeout_s is None:
                starved_since.pop(pool, None)
                continue
            running = _pool_running(active, pool, "map")
            demand = _pool_demand(active, pool, "map")
            target = min(cfg.min_share, demand)
            if running >= target:
                starved_since.pop(pool, None)
                continue
            since = starved_since.setdefault(pool, now)
            if now - since < cfg.preemption_timeout_s:
                continue
            if self._kill_for(pool, target - running, fair, active):
                starved_since[pool] = now  # give the kills time to land

    def _kill_for(self, beneficiary: str, need: int, fair: dict[str, float],
                  active: list[JobExecution]) -> int:
        """Kill up to ``need`` youngest over-share map tasks.

        A victim pool is never driven below ``max(min_share,
        ceil(fair_share))`` — a pool at its guarantee is inviolable, which
        is the fair-share dominance invariant the property tests check.
        """
        victims = [rec for rec in self._running_maps
                   if rec.ex.pool != beneficiary and not rec.kill.triggered]
        allowance: dict[str, int] = {}
        floor: dict[str, int] = {}
        for pool in {rec.ex.pool for rec in victims}:
            cfg = self.policy.pool(pool)
            running = _pool_running(active, pool, "map")
            keep = max(cfg.min_share,
                       math.ceil(fair.get(pool, 0.0) - 1e-9))
            floor[pool] = keep
            allowance[pool] = max(0, running - keep)
        victims.sort(key=lambda rec: (-rec.start, rec.ex.seq, rec.task_id))
        killed = 0
        for rec in victims:
            if killed >= need:
                break
            pool = rec.ex.pool
            if allowance.get(pool, 0) <= 0:
                continue
            allowance[pool] -= 1
            killed += 1
            rec.kill.succeed(beneficiary)
            self.report.pool(beneficiary).preemptions_claimed += 1
            self.tracer.emit(
                self.sim.now, EV.SCHEDULER_PREEMPT, rec.task_id,
                victim_pool=pool, for_pool=beneficiary,
                victim_running=_pool_running(active, pool, "map"),
                victim_floor=floor[pool],
                victim_min_share=self.policy.pool(pool).min_share,
                speculative=rec.speculative)
        return killed

    # -- accounting --------------------------------------------------------
    def _accrue(self) -> None:
        """Integrate time-weighted metrics up to now.

        Called *before* every scheduler-state mutation so each interval is
        charged under the state that actually held during it.
        """
        now = self.sim.now
        dt = now - self._stamp
        self._stamp = now
        if dt <= 0 or not self._jobs:
            return
        active = self._active
        busy = 0
        for ex in active:
            running = ex.running["map"] + ex.running["reduce"]
            busy += running
            # Accrue per-job slot occupancy from the same integral that
            # feeds busy_slot_seconds, so job, pool and cluster-wide
            # accounting agree by construction.  (Charging attempts as a
            # lump sum in the slot workers' ``finally`` broke
            # conservation: a speculative loser still running when its
            # job finishes landed its slot time *after* the JobStats
            # snapshot, so per-pool totals silently under-counted.)
            ex.report.slot_seconds += running * dt
        self.report.busy_slot_seconds += busy * dt
        n_running_jobs = sum(
            1 for ex in active
            if ex.running["map"] + ex.running["reduce"] > 0)
        if n_running_jobs >= 2:
            self.report.concurrent_busy_s += dt
        for kind in ("map", "reduce"):
            if (self._parked[kind] > 0
                    and any(ex.pending_count(kind) > 0 for ex in active)):
                self.report.idle_while_pending_s += dt
            shares = self.policy.shares(active, kind, self.total_slots(kind))
            for pool, share in shares.items():
                running = _pool_running(active, pool, kind)
                if share > running:
                    self.report.pool(pool).deficit_slot_seconds += (
                        (share - running) * dt)
