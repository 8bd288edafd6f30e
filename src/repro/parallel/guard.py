"""One-shot guarded calls on top of the sharding fabric.

:func:`call_guarded` runs a single ``worker(item)`` in a killable child
process with a wall-clock budget — the single-item degenerate of
:func:`repro.parallel.fabric.run_sharded`.  Campaign drivers use
``run_sharded`` directly; this wrapper serves spots that need to bound
*one* hostile call, e.g. the shrinker re-validating a reduction
candidate that might loop forever.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.parallel.fabric import run_sharded


@dataclass
class GuardedResult:
    """Outcome of one guarded call."""

    ok: bool
    value: Any = None
    error: Optional[str] = None
    timed_out: bool = False
    wall_s: float = 0.0


def call_guarded(worker: Callable[[Any], Any], item: Any, *,
                 timeout_s: float,
                 mp_context: str = "spawn") -> GuardedResult:
    """Run ``worker(item)`` in a child process under a wall budget.

    ``worker`` must be a module-level callable whose argument and return
    value survive pickling.  A timeout or crash comes back as
    ``ok=False`` with the reason in ``error`` — never an exception and
    never a hang.
    """
    run = run_sharded([item], worker, jobs=1, key=lambda _item: "0",
                      timeout_s=timeout_s, mp_context=mp_context)
    r = run.results[0]
    return GuardedResult(ok=r.ok, value=r.value, error=r.error,
                         timed_out=run.stats.timeouts > 0,
                         wall_s=r.wall_s or run.wall_s)
