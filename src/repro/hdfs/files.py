"""Logical files."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.hdfs.block import Block


@dataclass
class DfsFile:
    """A file in the simulated namespace: an ordered list of blocks."""

    path: str
    blocks: list[Block] = field(default_factory=list)

    @property
    def size(self) -> int:
        return sum(b.size for b in self.blocks)

    @property
    def n_records(self) -> int:
        return sum(b.n_records for b in self.blocks)

    def __iter__(self) -> Iterator[Block]:
        return iter(self.blocks)
