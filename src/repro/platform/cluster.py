"""HadoopVirtualCluster: one namenode VM plus N datanode/worker VMs.

This is the object the paper calls a "hadoop virtual cluster": the VMs, the
HDFS services bound to them (NameNode on the master, DataNode on each
worker), the per-worker TaskTracker slot resources, and a DfsClient.  It is
built by :class:`~repro.platform.vhadoop.VHadoopPlatform` from a
:class:`~repro.platform.provisioning.Placement`.

Hadoop convention of the paper's figures: an *n-node* cluster is 1 namenode
+ (n-1) datanodes; MapReduce tasks run on the datanode VMs.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.config import HadoopConfig
from repro.errors import ConfigError
from repro.hdfs import DataNode, DfsClient, NameNode
from repro.hdfs.replication import ReplicationMonitor
from repro.sim import Resource
from repro.telemetry import events as EV
from repro.telemetry.facade import Telemetry
from repro.virt.datacenter import Datacenter
from repro.virt.vm import VirtualMachine, VMState


class TaskTracker:
    """Map/reduce slot bookkeeping for one worker VM."""

    def __init__(self, vm: VirtualMachine, config: HadoopConfig):
        self.vm = vm
        self.map_slots = Resource(vm.sim, config.map_tasks_maximum,
                                  name=f"{vm.name}.map_slots")
        self.reduce_slots = Resource(vm.sim, config.reduce_tasks_maximum,
                                     name=f"{vm.name}.reduce_slots")
        #: A draining tracker takes no new tasks (elastic scale-in: the
        #: autoscaler marks it, waits for quiescence, then retires the VM).
        self.draining = False

    @property
    def name(self) -> str:
        return self.vm.name


class HadoopVirtualCluster:
    """A provisioned, running hadoop virtual cluster."""

    def __init__(self, name: str, datacenter: Datacenter,
                 master: VirtualMachine, workers: Sequence[VirtualMachine],
                 config: Optional[HadoopConfig] = None):
        if not workers:
            raise ConfigError("a hadoop cluster needs at least one worker")
        self.name = name
        self.datacenter = datacenter
        self.sim = datacenter.sim
        self.tracer = datacenter.tracer
        self.config = config or datacenter.config.hadoop
        self.master = master
        self.workers = list(workers)
        self.namenode = NameNode(rng=datacenter.rng.stream(
            f"hdfs/placement/{name}"))
        self.datanodes: list[DataNode] = []
        self.trackers: list[TaskTracker] = []
        for vm in self.workers:
            dn = DataNode(vm)
            self.namenode.register_datanode(dn)
            self.datanodes.append(dn)
            self.trackers.append(TaskTracker(vm, self.config))
        #: The cluster's observability handle: tracer + metrics + monitor.
        self.telemetry = Telemetry(self.sim, self.tracer,
                                   metrics=datacenter.metrics,
                                   vms=self.vms, datacenter=datacenter)
        self.dfs = DfsClient(self.sim, datacenter.fabric, self.namenode,
                             self.config, tracer=self.tracer,
                             metrics=datacenter.metrics)
        #: Background failure detection + repair; armed by
        #: :meth:`arm_recovery` (the chaos injector and the job scheduler
        #: both arm it; standalone runner tests stay untouched).
        self.recovery: Optional[ReplicationMonitor] = None
        self._watched_trackers: set[str] = set()

    # -- convenience -----------------------------------------------------
    @property
    def vms(self) -> list[VirtualMachine]:
        return [self.master] + self.workers

    @property
    def n_nodes(self) -> int:
        """Paper counting: namenode + datanodes."""
        return 1 + len(self.workers)

    def tracker_of(self, vm_name: str) -> Optional[TaskTracker]:
        for tracker in self.trackers:
            if tracker.name == vm_name:
                return tracker
        return None

    def hosts_used(self) -> set[str]:
        return {vm.host.name for vm in self.vms if vm.host is not None}

    @property
    def cross_domain(self) -> bool:
        return len(self.hosts_used()) > 1

    @property
    def multi_rack(self) -> bool:
        """True when the datacenter has ToR/aggregation tiers (never on
        the flat or degenerate one-rack topologies)."""
        return self.datacenter.fabric.agg is not None

    def racks_used(self) -> set[str]:
        return {vm.host.rack_name for vm in self.vms
                if vm.host is not None and vm.host.rack_name is not None}

    # -- elastic membership ------------------------------------------------
    def add_worker(self, vm: VirtualMachine,
                   with_datanode: bool = False) -> TaskTracker:
        """Join a running VM to the cluster as a new worker.

        By default the worker is *compute-only* (a TaskTracker without a
        DataNode) — the elastic-autoscaling contract: scaled-out capacity
        carries tasks, while HDFS replicas stay on the stable core
        workers, so scale-in never forces a re-replication sweep.  Pass
        ``with_datanode=True`` to grow the HDFS tier too (permanent
        expansion rather than elastic burst capacity).
        """
        self.workers.append(vm)
        tracker = TaskTracker(vm, self.config)
        self.trackers.append(tracker)
        if with_datanode:
            dn = DataNode(vm)
            self.namenode.register_datanode(dn)
            self.datanodes.append(dn)
            if self.recovery is not None:
                self.recovery.watch(dn)
        if self.recovery is not None:
            self.watch_tracker(tracker)
        self.telemetry.add_vm(vm)
        self.tracer.emit(self.sim.now, EV.CLUSTER_WORKER_JOINED, vm.name,
                         cluster=self.name, datanode=with_datanode,
                         n_nodes=self.n_nodes)
        return tracker

    def retire_worker(self, tracker: TaskTracker) -> None:
        """Detach a (drained) elastic worker and stop its VM.

        The caller is responsible for quiescence — no running tasks and no
        live shuffle inputs on the tracker (see
        :meth:`~repro.scheduler.JobScheduler.tracker_quiescent`).  Only
        compute-only workers should be retired; retiring a datanode VM
        would strand replicas.
        """
        if tracker in self.trackers:
            self.trackers = [t for t in self.trackers if t is not tracker]
        self.workers = [w for w in self.workers if w is not tracker.vm]
        self._watched_trackers.discard(tracker.name)
        if tracker.vm.host is not None:
            tracker.vm.stop()
        self.tracer.emit(self.sim.now, EV.CLUSTER_WORKER_RETIRED,
                         tracker.name, cluster=self.name,
                         n_nodes=self.n_nodes)

    # -- observability -----------------------------------------------------
    def observatory(self, **kwargs):
        """Build a :class:`~repro.observatory.core.Observatory` on this
        cluster (detectors, SLO alerting, per-job attribution).  The
        caller owns its lifecycle: ``start()`` it before the workload and
        ``stop()`` it after."""
        return self.telemetry.observatory(cluster=self, **kwargs)

    # -- failure detection & recovery -------------------------------------
    def arm_recovery(self) -> ReplicationMonitor:
        """Arm heartbeat-based failure detection and background repair.

        Idempotent.  A :class:`~repro.hdfs.replication.ReplicationMonitor`
        watches every datanode VM and re-replicates lost blocks when one
        dies; a reaper per TaskTracker declares it dead after
        ``missed_heartbeats_dead`` silent heartbeats and removes it from
        the scheduling pool.  All watchers wait on pending failure events
        (no heap slots), so a bare ``sim.run()`` still drains.
        """
        if self.recovery is None:
            self.recovery = ReplicationMonitor(
                self.sim, self.datacenter.fabric, self.namenode,
                self.config, tracer=self.tracer,
                metrics=self.telemetry.metrics)
        for dn in self.datanodes:
            self.recovery.watch(dn)
        for tracker in self.trackers:
            self.watch_tracker(tracker)
        return self.recovery

    def watch_tracker(self, tracker: TaskTracker) -> None:
        """Arm (or re-arm, after a rejoin) one tracker's dead-reaper."""
        if tracker.name in self._watched_trackers:
            return
        self._watched_trackers.add(tracker.name)
        self.sim.process(self._tracker_reaper(tracker),
                         name=f"{self.name}:reaper:{tracker.name}")

    def _tracker_reaper(self, tracker: TaskTracker):
        vm = tracker.vm
        yield vm.failure_event()
        self._watched_trackers.discard(tracker.name)
        # The JobTracker only notices after several silent heartbeats.
        grace = self.config.missed_heartbeats_dead * self.config.heartbeat_s
        if grace > 0:
            yield self.sim.timeout(grace)
        if vm.state is not VMState.FAILED:
            return  # rejoined within the grace window
        if tracker not in self.trackers:
            return  # already detached (manual fail_worker path)
        self.trackers = [t for t in self.trackers if t is not tracker]
        self.tracer.emit(self.sim.now, EV.RECOVERY_TRACKER_DEAD, vm.name,
                         cluster=self.name)
        self.telemetry.metrics.counter(
            "recovery.trackers.dead",
            "trackers declared dead after missed heartbeats").inc()

    def reconfigure(self, config: HadoopConfig) -> None:
        """Apply a new Hadoop configuration (the MapReduce Tuner's hook).

        Slot resources are rebuilt; jobs submitted afterwards use the new
        limits.  Must not be called while a job is running.
        """
        self.config = config
        self.trackers = [TaskTracker(vm, config) for vm in self.workers]
        self.dfs.config = config
        self.tracer.emit(self.sim.now, EV.CLUSTER_RECONFIGURE, self.name,
                         map_slots=config.map_tasks_maximum,
                         reduce_slots=config.reduce_tasks_maximum)

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<HadoopVirtualCluster {self.name} nodes={self.n_nodes} "
                f"{'cross-domain' if self.cross_domain else 'normal'}>")
