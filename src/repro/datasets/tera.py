"""TeraGen-style records.

The official TeraGen produces 100-byte records: a 10-byte random key, a
10-byte row id and 78 bytes of filler.  We keep the exact sizing (TeraSort
performance is entirely volume-driven) with an integer row id and a random
10-byte key; the filler is *not* materialized — its bytes are accounted by
``tera_sizeof``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.memo import cached

TERA_RECORD_BYTES = 100
TERA_KEY_BYTES = 10


@dataclass(frozen=True, order=True)
class TeraRecord:
    """One 100-byte record: 10-byte key, row id (filler is implicit)."""

    key: bytes
    row: int

    def __post_init__(self) -> None:
        if len(self.key) != TERA_KEY_BYTES:
            raise ValueError(f"key must be {TERA_KEY_BYTES} bytes")


def teragen(n_records: int, rng: Optional[np.random.Generator] = None
            ) -> list[TeraRecord]:
    """Generate ``n_records`` records with uniformly random keys (memoized,
    :mod:`repro.memo`)."""
    if n_records < 0:
        raise ValueError("n_records must be >= 0")
    return cached(_teragen, rng or np.random.default_rng(0), n_records)


def _teragen(rng: np.random.Generator, n_records: int) -> list[TeraRecord]:
    keys = rng.integers(0, 256, size=(n_records, TERA_KEY_BYTES),
                        dtype=np.uint8)
    return [TeraRecord(bytes(keys[i].tobytes()), i) for i in range(n_records)]


def tera_sizeof(_record) -> int:
    return TERA_RECORD_BYTES


def records_for_bytes(nbytes: int) -> int:
    """How many TeraGen records make up ``nbytes``."""
    return max(1, nbytes // TERA_RECORD_BYTES)
