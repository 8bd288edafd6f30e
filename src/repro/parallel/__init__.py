"""Process-pool execution fabric with deterministic result merge.

Public surface:

* :func:`run_sharded` — shard independent items over N worker processes;
  results come back in input order and digest identically for any job
  count or interleaving.
* :func:`call_guarded` — one call in a killable child under a wall
  budget.
* :class:`CampaignJournal` — JSONL checkpoint/resume for campaigns.
* :class:`ConsoleTailer` / :func:`control_room_html` — the live sidecar
  progress stream and the self-contained HTML control room
  (:mod:`repro.parallel.console`).
"""

from repro.parallel.console import (ConsoleTailer, ConsoleWriter,
                                    console_append, control_room_digest,
                                    control_room_html, write_control_room)
from repro.parallel.fabric import (FabricStats, ItemResult, ShardedRun,
                                   WorkerStats, run_sharded)
from repro.parallel.guard import GuardedResult, call_guarded
from repro.parallel.journal import CampaignJournal

__all__ = [
    "CampaignJournal",
    "ConsoleTailer",
    "ConsoleWriter",
    "FabricStats",
    "GuardedResult",
    "ItemResult",
    "ShardedRun",
    "WorkerStats",
    "call_guarded",
    "console_append",
    "control_room_digest",
    "control_room_html",
    "run_sharded",
    "write_control_room",
]
