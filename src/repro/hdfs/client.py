"""DfsClient: the data plane of the simulated HDFS.

Writes run the replication *pipeline*: the writer streams a block to the
first datanode, which forwards to the second, and so on.  Because the hops
stream concurrently, a block's write time is governed by the slowest hop
plus the replica disk writes; we model this by opening all hop transfers
and disk writes at once and waiting for them all.

Reads pick the closest replica (NameNode policy) and charge the source
disk plus the network hop to the reader.  A reader that is itself a holder
pays only its own disk.

All byte sizes are supplied by the caller through a ``sizeof`` function so
that datasets control their own serialized density (text vs vectors vs
100-byte TeraSort records).
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence, TYPE_CHECKING

from repro.config import HadoopConfig
from repro.hdfs.block import Block, next_block_id
from repro.hdfs.files import DfsFile
from repro.hdfs.namenode import NameNode
from repro.sim import Simulator, Tracer
from repro.sim.kernel import Event
from repro.telemetry import events as EV

if TYPE_CHECKING:  # pragma: no cover
    from repro.net import NetworkFabric
    from repro.virt.vm import VirtualMachine

#: Default serialized-size estimator: callers usually pass their own.
def default_sizeof(record: Any) -> int:
    if isinstance(record, (bytes, bytearray)):
        return len(record)
    if isinstance(record, str):
        return len(record.encode("utf-8", "ignore")) + 1
    return 64


class DfsClient:
    """File-level read/write API bound to one cluster."""

    def __init__(self, sim: Simulator, fabric: "NetworkFabric",
                 namenode: NameNode, config: HadoopConfig,
                 tracer: Optional[Tracer] = None, metrics=None):
        self.sim = sim
        self.fabric = fabric
        self.namenode = namenode
        self.config = config
        self.tracer = tracer or Tracer(enabled=False)
        self.metrics = metrics

    # -- write -------------------------------------------------------------
    def write_file(self, writer: "VirtualMachine", path: str,
                   records: Sequence[Any],
                   sizeof: Callable[[Any], int] = default_sizeof,
                   replication: Optional[int] = None) -> Event:
        """Write ``records`` as a new file; event value is the DfsFile.

        Records are packed into blocks of at most ``dfs.block.size``
        serialized bytes (at least one record per block).
        """
        return self.sim.process(
            self._write_proc(writer, path, records, sizeof, replication),
            name=f"dfs:write:{path}")

    def _pack_blocks(self, records: Sequence[Any],
                     sizeof: Callable[[Any], int]
                     ) -> list[tuple[Block, list[Any]]]:
        blocks: list[tuple[Block, list[Any]]] = []
        current: list[Any] = []
        current_bytes = 0
        limit = self.config.dfs_block_size
        for record in records:
            nbytes = sizeof(record)
            if current and current_bytes + nbytes > limit:
                blocks.append((Block(next_block_id(), current_bytes,
                                     len(current)), current))
                current, current_bytes = [], 0
            current.append(record)
            current_bytes += nbytes
        if current:
            blocks.append((Block(next_block_id(), current_bytes,
                                 len(current)), current))
        return blocks

    def _write_proc(self, writer, path, records, sizeof, replication):
        replication = replication or self.config.dfs_replication
        f = self.namenode.create_file(path)
        packed = self._pack_blocks(records, sizeof)
        span = self.tracer.begin_span(self.sim.now, EV.DFS_WRITE, path,
                                      writer=writer.name,
                                      blocks=len(packed))
        for block, payload in packed:
            yield from self._write_block(writer, f, block, payload,
                                         replication)
        self.tracer.end_span(span, self.sim.now, bytes=f.size)
        self.tracer.emit(self.sim.now, EV.DFS_FILE_WRITTEN, path,
                         blocks=len(packed), bytes=f.size)
        if self.metrics is not None:
            self.metrics.counter("hdfs.bytes.written",
                                 "file bytes committed to HDFS").inc(f.size)
            self.metrics.counter("hdfs.files.written",
                                 "files committed to HDFS").inc()
        return f

    def _write_block(self, writer, f: DfsFile, block: Block,
                     payload: Sequence[Any], replication: int):
        targets = self.namenode.choose_write_targets(writer.name, replication)
        pending = []
        # Pipeline hops: writer -> dn0 -> dn1 -> ... (concurrent streaming).
        previous = writer.node
        for dn in targets:
            if dn.vm.node is not previous:
                pending.append(self.fabric.transfer(
                    previous, dn.vm.node, block.size,
                    name=f"dfs:pipe:{block.block_id}"))
            pending.append(dn.write_to_disk(block))
            previous = dn.vm.node
        if pending:
            yield self.sim.all_of(pending)
        self.namenode.block_store.put(block, payload)
        self.namenode.commit_block(f, block, targets)

    # -- read ---------------------------------------------------------------
    def read_block(self, reader: "VirtualMachine", block: Block,
                   prefer_local: bool = True) -> Event:
        """Read one block to ``reader``; event value is the payload tuple."""
        return self.sim.process(
            self._read_block_proc(reader, block, prefer_local),
            name=f"dfs:read:{block.block_id}")

    def _read_block_proc(self, reader, block: Block, prefer_local: bool = True):
        source = self.namenode.choose_read_replica(reader.name, block,
                                                   prefer_local=prefer_local)
        pending = [source.read_from_disk(block)]
        if source.vm.node is not reader.node:
            pending.append(self.fabric.transfer(
                source.vm.node, reader.node, block.size,
                name=f"dfs:fetch:{block.block_id}"))
        yield self.sim.all_of(pending)
        return self.namenode.block_store.get(block)

    def read_file(self, reader: "VirtualMachine", path: str,
                  prefer_local: bool = True) -> Event:
        """Read a whole file; event value is the tuple of all records."""
        return self.sim.process(self._read_file_proc(reader, path,
                                                     prefer_local),
                                name=f"dfs:read:{path}")

    def _read_file_proc(self, reader, path: str, prefer_local: bool = True):
        f = self.namenode.get_file(path)
        out: list[Any] = []
        for block in f.blocks:
            payload = yield self.read_block(reader, block,
                                            prefer_local=prefer_local)
            out.extend(payload)
        return tuple(out)

    # -- convenience ------------------------------------------------------------
    def peek_records(self, path: str) -> tuple[Any, ...]:
        """All records of a file without charging any simulated time
        (test/debug helper — the control plane looking at its own data)."""
        f = self.namenode.get_file(path)
        out: list[Any] = []
        for block in f.blocks:
            out.extend(self.namenode.block_store.get(block))
        return tuple(out)
