"""Blocks and the block payload store.

A :class:`Block` is pure metadata: identity, byte size, record count.  The
actual payload — a list of real records — lives exactly once in the
:class:`BlockStore`, no matter how many datanodes hold replicas.  This keeps
the simulation functional (jobs read real data) without multiplying memory
by the replication factor.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Sequence

from repro.errors import BlockNotFound

_block_ids = itertools.count()


def next_block_id() -> str:
    return f"blk_{next(_block_ids):08d}"


@dataclass(frozen=True)
class Block:
    """Metadata of one HDFS block."""

    block_id: str
    size: int          # serialized bytes (simulated)
    n_records: int

    def __post_init__(self) -> None:
        if self.size < 0 or self.n_records < 0:
            raise ValueError("block size and record count must be >= 0")


class BlockStore:
    """Single-copy payload storage for all blocks of a cluster."""

    def __init__(self) -> None:
        self._payloads: dict[str, tuple[Any, ...]] = {}

    def put(self, block: Block, records: Sequence[Any]) -> None:
        self._payloads[block.block_id] = tuple(records)

    def get(self, block: Block) -> tuple[Any, ...]:
        try:
            return self._payloads[block.block_id]
        except KeyError:
            raise BlockNotFound(f"no payload for {block.block_id}") from None

    def __contains__(self, block: Block) -> bool:
        return block.block_id in self._payloads

    def __len__(self) -> int:
        return len(self._payloads)
