"""The trace-event taxonomy: every kind the platform may emit.

Emit sites reference these constants instead of bare string literals, so
the full vocabulary of the trace is auditable in one place and a test can
assert that nothing emits an unregistered kind
(``tests/telemetry/test_events.py``).

Span kinds (``SPAN_KINDS``) are intervals: opening one emits
``<kind>.start`` and closing it emits ``<kind>.end`` — both derived event
kinds are registered automatically.  ``category_of`` maps any kind onto the
coarse categories the Chrome-trace exporter and the critical-path analyser
group by (job / phase / task / shuffle / vm / migration / hdfs / net /
scheduler / cluster / cloud).

This module is a leaf: it must import nothing from :mod:`repro` so that
every layer of the system (including :mod:`repro.net` and
:mod:`repro.sim`) can reference it without cycles.
"""

from __future__ import annotations

# -- span kinds (intervals; events are <kind>.start / <kind>.end) ------------
JOB_RUN = "job.run"                      #: whole job, submit → report
PHASE_MAP = "job.phase.map"              #: map phase of one job
PHASE_REDUCE = "job.phase.reduce"        #: reduce phase of one job
TASK_MAP = "task.map.attempt"            #: one map attempt on a tracker
TASK_REDUCE = "task.reduce.attempt"      #: one reduce attempt on a tracker
SHUFFLE_FETCH = "shuffle.fetch"          #: one map→reduce partition copy
DFS_WRITE = "dfs.write"                  #: one replicated HDFS file write
VM_BOOT = "vm.boot"                      #: NFS image fetch + guest boot
MIGRATION = "migration"                  #: one live migration, setup → resume

SPAN_KINDS: frozenset[str] = frozenset({
    JOB_RUN, PHASE_MAP, PHASE_REDUCE, TASK_MAP, TASK_REDUCE,
    SHUFFLE_FETCH, DFS_WRITE, VM_BOOT, MIGRATION,
})

# -- point-event kinds -------------------------------------------------------
NET_TRANSFER_START = "net.transfer.start"
NET_TRANSFER_END = "net.transfer.end"

CLUSTER_PROVISIONED = "cluster.provisioned"
CLUSTER_RECONFIGURE = "cluster.reconfigure"
CLUSTER_WORKER_FAILED = "cluster.worker.failed"
CLUSTER_WORKER_JOINED = "cluster.worker.joined"
CLUSTER_WORKER_RETIRED = "cluster.worker.retired"

VM_PLACE = "vm.place"
VM_FAILED = "vm.failed"

MIGRATION_ROUND = "migration.round"
VIRTLM_CLUSTER_END = "virtlm.cluster.end"

JOB_SUBMIT = "job.submit"
JOB_MAPS_DONE = "job.maps.done"
JOB_DONE = "job.done"

TASK_MAP_DONE = "task.map.done"
TASK_REDUCE_DONE = "task.reduce.done"
TASK_MAP_SPECULATE = "task.map.speculate"
TASK_REDUCE_SPECULATE = "task.reduce.speculate"
TASK_MAP_RECOVER = "task.map.recover"
TASK_MAP_PREEMPTED = "task.map.preempted"

SCHEDULER_SUBMIT = "scheduler.submit"
SCHEDULER_PREEMPT = "scheduler.preempt"

DFS_FILE_WRITTEN = "dfs.file.written"
HDFS_REPAIR_LOST = "hdfs.repair.lost"
HDFS_REPAIR_DONE = "hdfs.repair.done"

CLOUD_REQUEST_DONE = "cloud.request.done"
CLOUD_ADMISSION = "cloud.admission.decision"
CLOUD_AUTOSCALE = "cloud.autoscale.action"
SERVICE_REQUEST_DONE = "cloud.service.request.done"

VM_RECOVERED = "vm.recovered"

CHAOS_PLAN_START = "chaos.plan.start"
CHAOS_PLAN_DONE = "chaos.plan.done"
CHAOS_VM_CRASH = "chaos.vm.crash"
CHAOS_HOST_CRASH = "chaos.host.crash"
CHAOS_NET_DEGRADE = "chaos.net.degrade"
CHAOS_NET_HEAL = "chaos.net.heal"
CHAOS_DISK_SLOW = "chaos.disk.slow"
CHAOS_DISK_HEAL = "chaos.disk.heal"
CHAOS_REJOIN = "chaos.rejoin"

OBSERVATORY_ALERT_FIRED = "observatory.alert.fired"
OBSERVATORY_ALERT_RESOLVED = "observatory.alert.resolved"

RECOVERY_TRACKER_DEAD = "recovery.tracker.dead"
RECOVERY_DATANODE_DEAD = "recovery.datanode.dead"
RECOVERY_TASK_RETRY = "recovery.task.retry"
RECOVERY_TRACKER_BLACKLISTED = "recovery.tracker.blacklisted"
RECOVERY_REPLICATION_START = "recovery.replication.start"
RECOVERY_REPLICATION_DONE = "recovery.replication.done"
RECOVERY_WORKER_REJOINED = "recovery.worker.rejoined"

POINT_KINDS: frozenset[str] = frozenset({
    NET_TRANSFER_START, NET_TRANSFER_END,
    CLUSTER_PROVISIONED, CLUSTER_RECONFIGURE, CLUSTER_WORKER_FAILED,
    CLUSTER_WORKER_JOINED, CLUSTER_WORKER_RETIRED,
    VM_PLACE, VM_FAILED, VM_RECOVERED,
    MIGRATION_ROUND, VIRTLM_CLUSTER_END,
    JOB_SUBMIT, JOB_MAPS_DONE, JOB_DONE,
    TASK_MAP_DONE, TASK_REDUCE_DONE,
    TASK_MAP_SPECULATE, TASK_REDUCE_SPECULATE,
    TASK_MAP_RECOVER, TASK_MAP_PREEMPTED,
    SCHEDULER_SUBMIT, SCHEDULER_PREEMPT,
    DFS_FILE_WRITTEN, HDFS_REPAIR_LOST, HDFS_REPAIR_DONE,
    CLOUD_REQUEST_DONE, CLOUD_ADMISSION, CLOUD_AUTOSCALE,
    SERVICE_REQUEST_DONE,
    CHAOS_PLAN_START, CHAOS_PLAN_DONE,
    CHAOS_VM_CRASH, CHAOS_HOST_CRASH,
    CHAOS_NET_DEGRADE, CHAOS_NET_HEAL,
    CHAOS_DISK_SLOW, CHAOS_DISK_HEAL, CHAOS_REJOIN,
    OBSERVATORY_ALERT_FIRED, OBSERVATORY_ALERT_RESOLVED,
    RECOVERY_TRACKER_DEAD, RECOVERY_DATANODE_DEAD,
    RECOVERY_TASK_RETRY, RECOVERY_TRACKER_BLACKLISTED,
    RECOVERY_REPLICATION_START, RECOVERY_REPLICATION_DONE,
    RECOVERY_WORKER_REJOINED,
})

#: Every event kind the tracer may legitimately carry.
REGISTERED_KINDS: frozenset[str] = POINT_KINDS | frozenset(
    f"{kind}.{edge}" for kind in SPAN_KINDS for edge in ("start", "end"))


# -- categories --------------------------------------------------------------
#: Span-kind → coarse category (exporter process grouping, critical path).
SPAN_CATEGORIES: dict[str, str] = {
    JOB_RUN: "job",
    PHASE_MAP: "phase",
    PHASE_REDUCE: "phase",
    TASK_MAP: "task",
    TASK_REDUCE: "task",
    SHUFFLE_FETCH: "shuffle",
    DFS_WRITE: "hdfs",
    VM_BOOT: "vm",
    MIGRATION: "migration",
}

_PREFIX_CATEGORIES: tuple[tuple[str, str], ...] = (
    ("job.", "job"),
    ("task.", "task"),
    ("shuffle.", "shuffle"),
    ("scheduler.", "scheduler"),
    ("vm.", "vm"),
    ("migration", "migration"),
    ("virtlm.", "migration"),
    ("dfs.", "hdfs"),
    ("hdfs.", "hdfs"),
    ("net.", "net"),
    ("cluster.", "cluster"),
    ("cloud.", "cloud"),
    ("chaos.", "chaos"),
    ("recovery.", "recovery"),
    ("observatory.", "observatory"),
)


def category_of(kind: str) -> str:
    """Coarse category of an event or span kind (``"other"`` if unknown)."""
    if kind in SPAN_CATEGORIES:
        return SPAN_CATEGORIES[kind]
    for prefix, category in _PREFIX_CATEGORIES:
        if kind.startswith(prefix):
            return category
    return "other"
