"""Content digests: the one hash every determinism check compares.

A digest is sha256 over UTF-8 text, shown as its first :data:`WIDTH` hex
characters.  Run reports, fault plans, scenarios, journals and stores all
digest through here, so CI, the test pins and the fuzz repro files compare
values made by the same rule.  :func:`content` is the full-width sha256
of a buffer's bytes, the stand-in for an array in a memo key
(:mod:`repro.memo`).  (:mod:`repro.sim.rng` hashes stream names for seed
entropy, which is not a digest, and keeps its own ``hashlib``.)
"""

from __future__ import annotations

import hashlib

#: Hex characters kept from the sha256 hexdigest.
WIDTH = 16


class Digest:
    """Streaming digest: feed text with :meth:`update`, read :meth:`hex`."""

    __slots__ = ("_h",)

    def __init__(self):
        self._h = hashlib.sha256()

    def update(self, text: str) -> None:
        self._h.update(text.encode("utf-8"))

    def hex(self) -> str:
        return self._h.hexdigest()[:WIDTH]


def digest(text: str) -> str:
    """The digest of one string."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:WIDTH]


def content(buffer) -> bytes:
    """The full 32-byte sha256 of a C-contiguous buffer's bytes."""
    return hashlib.sha256(buffer).digest()
