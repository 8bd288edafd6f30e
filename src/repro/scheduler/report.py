"""Scheduler-level accounting: per-job, per-pool and cluster-wide."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional


@dataclass
class JobStats:
    """One finished job as the scheduler saw it."""

    job_name: str
    pool: str
    submitted_at: float
    finished_at: float
    wait_s: float                 # submission -> first task on a slot
    elapsed: float
    slot_seconds: float
    preempted_tasks: int = 0
    speculated_tasks: int = 0


@dataclass
class PoolStats:
    """Aggregate accounting for one pool/queue."""

    name: str
    n_jobs: int = 0
    wait_s_total: float = 0.0
    elapsed_total: float = 0.0
    slot_seconds: float = 0.0
    #: Integral of max(0, fair_share - running) over time (slot-seconds the
    #: pool was owed under the policy's own share definition).
    deficit_slot_seconds: float = 0.0
    #: Tasks of *this* pool killed to serve a starved pool.
    preemptions_suffered: int = 0
    #: Kills triggered on this pool's behalf.
    preemptions_claimed: int = 0

    @property
    def mean_wait_s(self) -> float:
        return self.wait_s_total / self.n_jobs if self.n_jobs else 0.0


@dataclass
class SchedulerReport:
    """Everything measured about one multi-job scheduling run."""

    policy: str
    cluster: str
    started_at: Optional[float] = None
    finished_at: float = 0.0
    jobs: list[JobStats] = field(default_factory=list)
    pools: dict[str, PoolStats] = field(default_factory=dict)
    #: Integral of (running tasks) over time, across all jobs.
    busy_slot_seconds: float = 0.0
    #: Wall time during which >= 2 jobs had tasks running simultaneously.
    concurrent_busy_s: float = 0.0
    #: Wall time a slot worker sat *parked* while dispatchable tasks were
    #: pending — the work-conservation residual; 0 when the scheduler never
    #: sleeps on available work (heartbeat assignment latency excluded).
    idle_while_pending_s: float = 0.0
    preemptions: int = 0

    def pool(self, name: str) -> PoolStats:
        if name not in self.pools:
            self.pools[name] = PoolStats(name=name)
        return self.pools[name]

    @property
    def makespan(self) -> float:
        """First submission to last completion."""
        if self.started_at is None:
            return 0.0
        return self.finished_at - self.started_at
