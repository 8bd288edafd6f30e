"""DataNodes.

A :class:`DataNode` runs on one VM and holds block *replicas* (metadata —
payloads live in the shared :class:`~repro.hdfs.block.BlockStore`).  Its
read/write primitives charge the VM's virtual disk, which fair-shares the
host's physical disk with every co-resident VM — one of the two contended
resources the paper blames for vHadoop's bottlenecks.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import HdfsError
from repro.hdfs.block import Block
from repro.sim.kernel import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.virt.vm import VirtualMachine


class DataNode:
    """Block storage service on one VM."""

    def __init__(self, vm: "VirtualMachine"):
        self.vm = vm
        self.blocks: dict[str, Block] = {}

    @property
    def name(self) -> str:
        return self.vm.name

    def holds(self, block: Block) -> bool:
        return block.block_id in self.blocks

    def add_replica(self, block: Block) -> None:
        self.blocks[block.block_id] = block

    def write_to_disk(self, block: Block) -> Event:
        """Charge the local-disk write of one replica."""
        return self.vm.disk_io(block.size, name=f"dfs:write:{block.block_id}")

    def read_from_disk(self, block: Block) -> Event:
        """Charge the local-disk read of one replica."""
        if not self.holds(block):
            raise HdfsError(f"{self.name} does not hold {block.block_id}")
        return self.vm.disk_io(block.size, name=f"dfs:read:{block.block_id}")

    def __repr__(self) -> str:  # pragma: no cover
        return f"<DataNode {self.name} blocks={len(self.blocks)}>"
