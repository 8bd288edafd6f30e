"""JobTracker-level multi-tenant scheduling.

The paper's platform assumes many users sharing virtual clusters, but the
base engine (:class:`repro.mapreduce.runner.MapReduceRunner`) runs one job
at a time.  This package adds the missing JobTracker: concurrent job
submissions against one :class:`~repro.platform.cluster.HadoopVirtualCluster`
arbitrated by pluggable policies —

* :class:`FifoScheduler` — Hadoop 0.20's default job queue;
* :class:`FairScheduler` — pools with weights, min-shares and optional
  preemption of over-share map tasks after a timeout;
* :class:`CapacityScheduler` — hierarchical queues with guaranteed
  capacities and elastic overflow.

Entry point: :class:`JobScheduler` (``submit(job, pool)`` → report event;
once the simulator has run those events, ``finalize()`` →
:class:`SchedulerReport`).
"""

from repro.scheduler.jobtracker import JobExecution, JobScheduler
from repro.scheduler.policies import (CapacityScheduler, FairScheduler,
                                      FifoScheduler, SchedulingPolicy)
from repro.scheduler.pools import PoolConfig, QueueConfig
from repro.scheduler.report import JobStats, PoolStats, SchedulerReport

__all__ = [
    "CapacityScheduler",
    "FairScheduler",
    "FifoScheduler",
    "JobExecution",
    "JobScheduler",
    "JobStats",
    "PoolConfig",
    "PoolStats",
    "QueueConfig",
    "SchedulerReport",
    "SchedulingPolicy",
]
