"""Campaign journal: checkpoint/resume for sharded runs.

A journal is a JSONL file.  The first line is a header pinning the
campaign's identity — the worker function and a digest over the sorted
item keys — so a resume against a *different* campaign is rejected
instead of silently merging unrelated results.  Every following line is
one resolved item::

    {"kind": "header", "format": 1, "worker": "pkg.mod:fn",
     "items_digest": "...", "total": 250}
    {"key": "0", "ok": true, "value": {...}, "wall_s": 0.31}
    {"key": "1", "ok": false, "error": "timeout after 30.0s", ...}

Lines are appended (and flushed) as items resolve, so a campaign killed
mid-flight loses at most the in-flight items.  On resume, ``ok`` entries
are reused verbatim and failed entries are *retried* — a worker death or
timeout is environmental, not a property of the item.  A truncated final
line (the writer died mid-append) is skipped, not fatal, and the next
append starts on a line of its own.  Any other malformed entry is a
:class:`ConfigError` naming the file and line.
"""

from __future__ import annotations

import io
import json
import os
from pathlib import Path
from typing import Optional

from repro.digest import digest
from repro.errors import ConfigError

FORMAT = 1


def items_digest(keys: list[str]) -> str:
    """Content digest over the sorted item keys (campaign identity)."""
    return digest("".join(f"{key}\n" for key in sorted(keys)))


class CampaignJournal:
    """Append-only JSONL checkpoint of one sharded campaign."""

    def __init__(self, path: "str | Path", worker_ref: str,
                 keys: list[str]):
        self.path = Path(path)
        self.worker_ref = worker_ref
        self.items_digest = items_digest(keys)
        self.total = len(keys)
        self._fh: Optional[io.TextIOWrapper] = None

    # -- resume ----------------------------------------------------------
    def load(self) -> dict[str, dict]:
        """Completed (``ok``) entries keyed by item key; {} if no journal.

        Raises :class:`ConfigError` when the journal on disk belongs to a
        different campaign (worker or item set mismatch) or holds an entry
        that is not a JSON object, or an ``ok`` one without a string key.
        """
        if not self.path.exists():
            return {}
        completed: dict[str, dict] = {}
        header_seen = False
        lines = self.path.read_text(encoding="utf-8").splitlines()
        for number, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn final append from a killed run
            if not isinstance(entry, dict):
                raise ConfigError(
                    f"journal {self.path}, line {number}: expected a JSON "
                    f"object, got {type(entry).__name__}")
            if not header_seen:
                header_seen = True
                if entry.get("kind") != "header":
                    raise ConfigError(
                        f"journal {self.path} has no header line")
                if entry.get("format") != FORMAT:
                    raise ConfigError(
                        f"journal {self.path}: unsupported format "
                        f"{entry.get('format')!r}")
                for field, want in (("worker", self.worker_ref),
                                    ("items_digest", self.items_digest)):
                    if entry.get(field) != want:
                        raise ConfigError(
                            f"journal {self.path} belongs to a different "
                            f"campaign: {field} {entry.get(field)!r} != "
                            f"{want!r}")
                continue
            if entry.get("ok"):
                if not isinstance(entry.get("key"), str):
                    raise ConfigError(
                        f"journal {self.path}, line {number}: ok entry "
                        f"without a string key")
                completed[entry["key"]] = entry
        return completed

    # -- append ----------------------------------------------------------
    def open(self) -> None:
        """Open for appending; writes the header when the file is new and
        ends a torn last line, so the first append is a line of its own."""
        fresh = not self.path.exists() or self.path.stat().st_size == 0
        torn = False
        if not fresh:
            with self.path.open("rb") as fh:
                fh.seek(-1, os.SEEK_END)
                torn = fh.read(1) != b"\n"
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = self.path.open("a", encoding="utf-8")
        if torn:
            self._fh.write("\n")
        if fresh:
            self._write({"kind": "header", "format": FORMAT,
                         "worker": self.worker_ref,
                         "items_digest": self.items_digest,
                         "total": self.total})

    def append(self, entry: dict) -> None:
        if self._fh is not None:
            self._write(entry)

    def _write(self, obj: dict) -> None:
        assert self._fh is not None
        self._fh.write(json.dumps(obj, sort_keys=True) + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None
