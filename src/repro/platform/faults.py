"""Fault injection and recovery orchestration.

The paper's conclusion (iii) relies on Hadoop's fault tolerance: "the
hadoop fault tolerance mechanism will re-run the job or restore from other
available backup data".  This module makes that testable:

* :func:`fail_worker` crashes a worker VM and declares its DataNode and
  TaskTracker dead to the cluster;
* :func:`repair_cluster` runs an HDFS re-replication sweep restoring every
  under-replicated block from the surviving copies.

Task-level recovery (re-running map tasks whose outputs died with their
VM) lives in the MapReduce runner itself, which consults the tracker's VM
state before scheduling and recovers lost map outputs during the shuffle.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import VMStateError
from repro.hdfs.replication import (RepairReport, ReplicationRepairer,
                                    mark_datanode_dead)
from repro.telemetry import events as EV
from repro.virt.vm import VirtualMachine, VMState

if TYPE_CHECKING:  # pragma: no cover
    from repro.platform.cluster import HadoopVirtualCluster


def fail_worker(cluster: "HadoopVirtualCluster", vm: VirtualMachine) -> None:
    """Crash a worker VM and detach its services from the cluster."""
    if vm not in cluster.workers:
        raise VMStateError(f"{vm.name} is not a worker of {cluster.name}")
    vm.fail()
    datanode = cluster.namenode.datanode_of(vm.name)
    if datanode is not None:
        mark_datanode_dead(cluster.namenode, datanode)
        cluster.datanodes = [dn for dn in cluster.datanodes
                             if dn is not datanode]
    cluster.trackers = [t for t in cluster.trackers if t.vm is not vm]
    cluster.tracer.emit(cluster.sim.now, EV.CLUSTER_WORKER_FAILED,
                        cluster.name, vm=vm.name)


def crash_worker(cluster: "HadoopVirtualCluster", vm: VirtualMachine) -> None:
    """Crash a worker VM *without* declaring its services dead.

    Unlike :func:`fail_worker` (the oracle's view: services are detached
    the same instant), this models what the platform can actually observe:
    the VM just stops answering.  Detection is left to the armed recovery
    monitors — heartbeat expiry reaps the TaskTracker, the replication
    monitor reaps the DataNode and re-replicates its blocks — so in-flight
    tasks fail, retry elsewhere, and the cluster heals itself.  Arm them
    with :meth:`~repro.platform.cluster.HadoopVirtualCluster.arm_recovery`.
    """
    if vm not in cluster.workers:
        raise VMStateError(f"{vm.name} is not a worker of {cluster.name}")
    vm.fail()
    cluster.tracer.emit(cluster.sim.now, EV.CLUSTER_WORKER_FAILED,
                        cluster.name, vm=vm.name)


def rejoin_worker(cluster: "HadoopVirtualCluster",
                  vm: VirtualMachine) -> None:
    """Bring a crashed worker back into the cluster (delayed recovery).

    The VM reboots with a cold, empty disk: its old replicas are scrubbed
    from the namespace (they died with the guest), a fresh DataNode
    re-registers, and a new TaskTracker joins the scheduling pool.  When
    recovery is armed the rejoined services are re-watched and a repair
    sweep is kicked so any block that lost its last copy to the scrub is
    restored (or reported) promptly.
    """
    if vm not in cluster.workers:
        raise VMStateError(f"{vm.name} is not a worker of {cluster.name}")
    vm.recover()
    old = cluster.namenode.datanode_of(vm.name)
    if old is not None:
        # Never reaped (rejoin beat the expiry window): scrub its stale
        # replica entries — the data did not survive the crash.
        mark_datanode_dead(cluster.namenode, old)
    cluster.datanodes = [dn for dn in cluster.datanodes if dn.vm is not vm]
    from repro.hdfs import DataNode
    fresh = DataNode(vm)
    cluster.namenode.register_datanode(fresh)
    cluster.datanodes.append(fresh)
    tracker = cluster.tracker_of(vm.name)
    if tracker is None:
        from repro.platform.cluster import TaskTracker
        tracker = TaskTracker(vm, cluster.config)
        cluster.trackers.append(tracker)
    if cluster.recovery is not None:
        cluster.recovery.watch(fresh)
        cluster.watch_tracker(tracker)
        cluster.recovery.sweep()
    cluster.tracer.emit(cluster.sim.now, EV.RECOVERY_WORKER_REJOINED,
                        cluster.name, vm=vm.name)


def alive_workers(cluster: "HadoopVirtualCluster") -> list[VirtualMachine]:
    return [vm for vm in cluster.workers if vm.state is VMState.RUNNING]


def repair_cluster(cluster: "HadoopVirtualCluster") -> RepairReport:
    """Run one re-replication sweep to completion; returns its report."""
    repairer = ReplicationRepairer(cluster.sim,
                                   cluster.datacenter.fabric,
                                   cluster.namenode,
                                   tracer=cluster.tracer)
    event = repairer.repair(cluster.config.dfs_replication)
    cluster.sim.run_until(event)
    return event.value
