"""The NameNode: namespace and block placement.

Placement follows Hadoop's default policy.  On multi-rack topologies it
is fully rack-aware:

1. first replica on the writer's own datanode when it has one, otherwise a
   random datanode;
2. second replica on a datanode of a *different rack* when one exists
   (falling back to a different host);
3. third replica on the second replica's rack but a different node
   (Hadoop's default `BlockPlacementPolicy`);
4. further replicas on random remaining datanodes.

On flat/one-rack topologies (the paper's testbed) physical hosts stand in
for racks — the host boundary *is* the interesting topology boundary —
and the decision sequence (including every RNG draw) is bit-identical to
the pre-rack model.

Replica choice for reads prefers the closest copy: writer-local datanode >
same-host datanode > same-rack datanode > any — HDFS's `NetworkTopology`
distances.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.errors import (FileAlreadyExists, FileNotFoundInDfs,
                          ReplicationError)
from repro.hdfs.block import Block, BlockStore
from repro.hdfs.datanode import DataNode
from repro.hdfs.files import DfsFile


class NameNode:
    """Namespace plus placement decisions (control plane only)."""

    def __init__(self, rng: Optional[np.random.Generator] = None):
        self.files: dict[str, DfsFile] = {}
        self.datanodes: list[DataNode] = []
        self.block_store = BlockStore()
        #: block_id -> datanodes holding a replica
        self.replicas: dict[str, list[DataNode]] = {}
        self._rng = rng or np.random.default_rng(0)

    # -- membership ----------------------------------------------------------
    def register_datanode(self, datanode: DataNode) -> None:
        self.datanodes.append(datanode)

    def datanode_of(self, vm_name: str) -> Optional[DataNode]:
        for dn in self.datanodes:
            if dn.vm.name == vm_name:
                return dn
        return None

    # -- namespace ----------------------------------------------------------
    def create_file(self, path: str) -> DfsFile:
        if path in self.files:
            raise FileAlreadyExists(path)
        f = DfsFile(path)
        self.files[path] = f
        return f

    def get_file(self, path: str) -> DfsFile:
        try:
            return self.files[path]
        except KeyError:
            raise FileNotFoundInDfs(path) from None

    def exists(self, path: str) -> bool:
        return path in self.files

    def list_files(self, prefix: str = "") -> list[str]:
        return sorted(p for p in self.files if p.startswith(prefix))

    # -- placement ----------------------------------------------------------
    @staticmethod
    def _is_live(dn: DataNode) -> bool:
        """A datanode whose VM can still serve I/O.

        A crashed VM may linger in ``self.datanodes`` until the recovery
        monitor's expiry window elapses; placement must never pick it.
        """
        from repro.virt.vm import VMState
        state = getattr(dn.vm, "state", None)
        return state is None or state in (VMState.RUNNING, VMState.MIGRATING)

    @staticmethod
    def _rack_of(dn: DataNode):
        """The datanode's rack (``None`` on flat topologies)."""
        host = dn.vm.host
        return host.rack if host is not None else None

    @classmethod
    def _is_multi_rack(cls, pool: Sequence[DataNode]) -> bool:
        """More than one distinct rack among the datanodes."""
        racks = {cls._rack_of(dn) for dn in pool}
        racks.discard(None)
        return len(racks) > 1

    def choose_write_targets(self, writer_vm_name: str, replication: int
                             ) -> list[DataNode]:
        """Pick ``replication`` *live* datanodes for a new block."""
        if replication < 1:
            raise ReplicationError("replication must be >= 1")
        pool = [dn for dn in self.datanodes if self._is_live(dn)]
        if not pool:
            raise ReplicationError("no live datanodes registered")
        # HDFS under-replicates (with a warning) when the cluster is smaller
        # than the requested factor — a 2-node cluster stores one replica.
        replication = min(replication, len(pool))
        targets: list[DataNode] = []
        local = self.datanode_of(writer_vm_name)
        if local is not None and self._is_live(local):
            targets.append(local)
        else:
            targets.append(self._pick(pool, exclude=targets))
        if self._is_multi_rack(pool):
            self._add_rack_aware_targets(pool, targets, replication)
        elif len(targets) < replication:
            # Flat topology: hosts stand in for racks (bit-identical to
            # the pre-rack policy, same RNG draw sequence).
            first_host = targets[0].vm.host
            off_host = [dn for dn in pool
                        if dn.vm.host is not first_host and dn not in targets]
            if off_host:
                targets.append(self._pick(off_host, exclude=targets))
        while len(targets) < replication:
            targets.append(self._pick(pool, exclude=targets))
        return targets

    def _add_rack_aware_targets(self, pool: Sequence[DataNode],
                                targets: list[DataNode],
                                replication: int) -> None:
        """Hadoop's default rack policy for replicas 2 and 3: second
        replica off-rack, third on the second's rack but off-node."""
        if len(targets) < replication:
            first_rack = self._rack_of(targets[0])
            off_rack = [dn for dn in pool
                        if self._rack_of(dn) is not first_rack
                        and dn not in targets]
            if off_rack:
                targets.append(self._pick(off_rack, exclude=targets))
            else:  # no other rack has capacity: degrade to off-host
                first_host = targets[0].vm.host
                off_host = [dn for dn in pool
                            if dn.vm.host is not first_host
                            and dn not in targets]
                if off_host:
                    targets.append(self._pick(off_host, exclude=targets))
        if len(targets) < replication and len(targets) >= 2:
            second_rack = self._rack_of(targets[1])
            same_rack = [dn for dn in pool
                         if self._rack_of(dn) is second_rack
                         and dn not in targets]
            if same_rack:
                targets.append(self._pick(same_rack, exclude=targets))

    def choose_read_replica(self, reader_vm_name: str, block: Block,
                            prefer_local: bool = True) -> DataNode:
        """A datanode holding the block.

        ``prefer_local=True`` is HDFS's NetworkTopology choice (same node >
        same host > any); ``prefer_local=False`` picks a random replica —
        the effective behaviour when the reading task was scheduled without
        regard to this block's placement (TestDFSIO's read pattern).
        """
        holders = self.replicas.get(block.block_id, [])
        if not holders:
            raise ReplicationError(f"no replica of {block.block_id}")
        live = [dn for dn in holders if self._is_live(dn)]
        if not live:
            raise ReplicationError(
                f"no live replica of {block.block_id}")
        holders = live
        if prefer_local:
            reader = self.datanode_of(reader_vm_name)
            if reader is not None and reader in holders:
                return reader
            if reader is not None:
                same_host = [dn for dn in holders
                             if dn.vm.host is reader.vm.host]
                if same_host:
                    return self._pick(same_host, exclude=[])
                reader_rack = self._rack_of(reader)
                if reader_rack is not None:
                    same_rack = [dn for dn in holders
                                 if self._rack_of(dn) is reader_rack]
                    if same_rack:
                        return self._pick(same_rack, exclude=[])
        return self._pick(holders, exclude=[])

    def commit_block(self, f: DfsFile, block: Block,
                     targets: Sequence[DataNode]) -> None:
        """Record a fully written block (called by the client)."""
        f.blocks.append(block)
        self.replicas[block.block_id] = list(targets)
        for dn in targets:
            dn.add_replica(block)

    def _pick(self, pool: Sequence[DataNode], exclude: Sequence[DataNode]
              ) -> DataNode:
        candidates = [dn for dn in pool if dn not in exclude]
        if not candidates:
            raise ReplicationError("datanode pool exhausted")
        return candidates[int(self._rng.integers(len(candidates)))]
