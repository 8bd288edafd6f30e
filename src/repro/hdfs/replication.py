"""Replication repair: HDFS's answer to datanode loss.

The paper leans on exactly this mechanism in its dynamic analysis:
"The unavailable service during the period of downtime can be restored by
re-sending the requests or obtaining from other available data block
copies" (Section III-C).  When a datanode dies, the NameNode notices the
missing replicas and re-replicates every under-replicated block from a
surviving holder to a fresh target.

:class:`ReplicationRepairer` performs one repair sweep as a simulation
process: for each under-replicated block it charges a disk read at the
source, a network transfer, and a disk write at the new target — the same
data path as a client write.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.hdfs.block import Block
from repro.hdfs.datanode import DataNode
from repro.hdfs.namenode import NameNode
from repro.sim import Simulator, Tracer
from repro.telemetry import events as EV
from repro.sim.kernel import Event
from repro.virt.vm import VMState

if TYPE_CHECKING:  # pragma: no cover
    from repro.config import HadoopConfig
    from repro.net import NetworkFabric


@dataclass
class RepairReport:
    """Outcome of one repair sweep."""

    started_at: float
    finished_at: float = 0.0
    repaired: list[str] = field(default_factory=list)      # block ids
    unrecoverable: list[str] = field(default_factory=list)  # no live replica
    bytes_copied: float = 0.0
    #: The replication factor the sweep aimed for (as configured, before
    #: any clamping to the surviving cluster size).
    configured_replication: int = 0
    #: Blocks still below ``configured_replication`` when the sweep ended,
    #: mapped to how many replicas they are short.  A sweep on a shrunken
    #: cluster can "finish" with every block at the clamped target yet
    #: still under-replicated relative to the configuration — this field
    #: makes that shortfall visible instead of silently reporting a fully
    #: repaired cluster.
    shortfall: dict[str, int] = field(default_factory=dict)

    @property
    def elapsed(self) -> float:
        return self.finished_at - self.started_at

    @property
    def fully_replicated(self) -> bool:
        """True only if every block meets the *configured* replication."""
        return not self.shortfall and not self.unrecoverable


def mark_datanode_dead(namenode: NameNode, datanode: DataNode) -> list[Block]:
    """Remove a dead datanode from the cluster metadata.

    Returns the blocks that lost a replica (and therefore need repair).
    """
    if datanode in namenode.datanodes:
        namenode.datanodes.remove(datanode)
    lost: list[Block] = []
    for block_id, holders in namenode.replicas.items():
        if datanode in holders:
            holders.remove(datanode)
            lost.append(datanode.blocks.get(block_id)
                        or _find_block(namenode, block_id))
    return [b for b in lost if b is not None]


def _find_block(namenode: NameNode, block_id: str) -> Optional[Block]:
    for f in namenode.files.values():
        for block in f.blocks:
            if block.block_id == block_id:
                return block
    return None


def under_replicated(namenode: NameNode, replication: int
                     ) -> list[tuple[Block, int]]:
    """Blocks with fewer live replicas than the (clamped) target."""
    target = min(replication, len(namenode.datanodes))
    found = []
    for f in namenode.files.values():
        for block in f.blocks:
            live = len(namenode.replicas.get(block.block_id, []))
            if live < target:
                found.append((block, live))
    return found


class ReplicationRepairer:
    """Re-replication sweeps over one namespace."""

    def __init__(self, sim: Simulator, fabric: "NetworkFabric",
                 namenode: NameNode, tracer: Optional[Tracer] = None):
        self.sim = sim
        self.fabric = fabric
        self.namenode = namenode
        self.tracer = tracer or Tracer(enabled=False)

    def repair(self, replication: int) -> Event:
        """Run one sweep; event value is a :class:`RepairReport`."""
        return self.sim.process(self._repair_proc(replication),
                                name="hdfs:repair")

    def _repair_proc(self, replication: int):
        report = RepairReport(started_at=self.sim.now,
                              configured_replication=replication)
        for block, live in under_replicated(self.namenode, replication):
            holders = self.namenode.replicas.get(block.block_id, [])
            if not holders:
                self._mark_lost(block, report)
                continue
            # The achievable target is clamped to the surviving cluster
            # size; the gap to the configured replication is reported in
            # ``report.shortfall`` below rather than silently dropped.
            target = min(replication, len(self.namenode.datanodes))
            while len(self.namenode.replicas[block.block_id]) < target:
                progressed = yield from self._copy_replica(block, report)
                if not progressed:
                    break
        self._record_shortfall(report, replication)
        report.finished_at = self.sim.now
        self.tracer.emit(self.sim.now, EV.HDFS_REPAIR_DONE, "namenode",
                         repaired=len(report.repaired),
                         unrecoverable=len(report.unrecoverable),
                         shortfall=len(report.shortfall))
        return report

    def _record_shortfall(self, report: RepairReport, replication: int) -> None:
        for f in self.namenode.files.values():
            for block in f.blocks:
                live = len(self.namenode.replicas.get(block.block_id, []))
                if live < replication:
                    report.shortfall[block.block_id] = replication - live

    def _mark_lost(self, block: Block, report: RepairReport) -> None:
        if block.block_id not in report.unrecoverable:
            report.unrecoverable.append(block.block_id)
            self.tracer.emit(self.sim.now, EV.HDFS_REPAIR_LOST,
                             block.block_id)

    @staticmethod
    def _is_live(dn: DataNode) -> bool:
        state = getattr(dn.vm, "state", None)
        return state is None or state in (VMState.RUNNING, VMState.MIGRATING)

    def _copy_replica(self, block: Block, report: RepairReport):
        """Copy one replica; returns True if a replica was added.

        Datanodes can die *mid-sweep* under fault injection, so both the
        source and the target are picked from the currently-live holders
        and datanodes (a dead holder may still sit in a stale ``holders``
        list until the monitor reaps it).  When no live source remains the
        block is degraded to unrecoverable instead of raising; when no
        live target exists the block is simply left short (the shortfall
        is recorded at the end of the sweep).
        """
        holders = self.namenode.replicas[block.block_id]
        live_sources = [dn for dn in holders if self._is_live(dn)]
        if not live_sources:
            self._mark_lost(block, report)
            return False
        source = live_sources[0]
        candidates = [dn for dn in self.namenode.datanodes
                      if dn not in holders and self._is_live(dn)]
        if not candidates:
            return False
        # Prefer a target that restores rack diversity (all surviving
        # replicas on one rack -> copy off-rack), then fall back to
        # off-host, mirroring the write placement policy.  Flat/one-rack
        # topologies skip straight to the off-host preference.
        target = None
        if self.namenode._is_multi_rack(candidates + live_sources):
            holder_racks = {self.namenode._rack_of(dn)
                            for dn in live_sources}
            if len(holder_racks) == 1:
                off_rack = [dn for dn in candidates
                            if self.namenode._rack_of(dn)
                            not in holder_racks]
                if off_rack:
                    target = off_rack[0]
        if target is None:
            off_host = [dn for dn in candidates
                        if dn.vm.host is not source.vm.host]
            target = (off_host or candidates)[0]
        pending = [source.read_from_disk(block),
                   target.write_to_disk(block)]
        if source.vm.node is not target.vm.node:
            pending.append(self.fabric.transfer(
                source.vm.node, target.vm.node, block.size,
                name=f"hdfs:repair:{block.block_id}"))
        yield self.sim.all_of(pending)
        holders.append(target)
        target.add_replica(block)
        report.repaired.append(block.block_id)
        report.bytes_copied += block.size
        return True


class ReplicationMonitor:
    """NameNode-triggered background re-replication.

    One watcher process per datanode waits on its VM's
    :meth:`~repro.virt.vm.VirtualMachine.failure_event` (pending events
    occupy no heap slot, so a bare ``sim.run()`` still drains).  When a VM
    fails, the watcher waits ``replication_repair_delay_s`` (coalescing
    correlated failures, e.g. a whole host going down), reaps the datanode
    from the namespace, and kicks a repair sweep.  Concurrent death
    notifications fold into one extra sweep rather than racing.
    """

    def __init__(self, sim: Simulator, fabric: "NetworkFabric",
                 namenode: NameNode, config: "HadoopConfig",
                 tracer: Optional[Tracer] = None, metrics=None):
        self.sim = sim
        self.fabric = fabric
        self.namenode = namenode
        self.config = config
        self.tracer = tracer or Tracer(enabled=False)
        self.metrics = metrics
        self.repairer = ReplicationRepairer(sim, fabric, namenode,
                                            tracer=self.tracer)
        self.reports: list[RepairReport] = []
        self._watched: set[str] = set()
        self._sweeping = False
        self._resweep = False

    def sweep(self) -> None:
        """Kick a background repair sweep (coalesced while one runs)."""
        self.sim.process(self._sweep_proc(), name="hdfs:sweep")

    def watch(self, datanode: DataNode) -> None:
        """Arm (or re-arm, after a rejoin) the watcher for one datanode."""
        if datanode.vm.name in self._watched:
            return
        self._watched.add(datanode.vm.name)
        self.sim.process(self._watch_proc(datanode),
                         name=f"hdfs:watch:{datanode.vm.name}")

    def _watch_proc(self, datanode: DataNode):
        vm = datanode.vm
        yield vm.failure_event()
        self._watched.discard(vm.name)
        delay = self.config.replication_repair_delay_s
        if delay > 0:
            yield self.sim.timeout(delay)
        if vm.state is not VMState.FAILED:
            return  # rejoined before the expiry window elapsed
        if datanode not in self.namenode.datanodes:
            return  # already reaped (manual fail_worker path)
        lost = mark_datanode_dead(self.namenode, datanode)
        self.tracer.emit(self.sim.now, EV.RECOVERY_DATANODE_DEAD, vm.name,
                         lost_blocks=len(lost))
        if self.metrics is not None:
            self.metrics.counter(
                "recovery.datanodes.dead",
                "datanodes reaped by the replication monitor").inc()
        yield from self._sweep_proc()

    def _sweep_proc(self):
        if self._sweeping:
            self._resweep = True
            return
        self._sweeping = True
        try:
            while True:
                self._resweep = False
                self.tracer.emit(self.sim.now, EV.RECOVERY_REPLICATION_START,
                                 "namenode")
                report = yield self.repairer.repair(
                    self.config.dfs_replication)
                self.reports.append(report)
                self.tracer.emit(self.sim.now, EV.RECOVERY_REPLICATION_DONE,
                                 "namenode",
                                 repaired=len(report.repaired),
                                 unrecoverable=len(report.unrecoverable),
                                 shortfall=len(report.shortfall))
                if self.metrics is not None:
                    self.metrics.counter(
                        "recovery.blocks.repaired",
                        "block replicas restored by auto repair"
                    ).inc(len(report.repaired))
                if not self._resweep:
                    return
        finally:
            self._sweeping = False
