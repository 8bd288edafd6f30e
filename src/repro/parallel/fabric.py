"""Process-pool execution fabric for independent seeded runs.

:func:`run_sharded` shards a list of items (fuzz scenario seeds,
perf-ladder rungs, sweep points...) across N worker processes and merges
the results *deterministically*: the returned results follow the input
item order and :meth:`ShardedRun.digest` hashes them sorted by item key,
so the digest is byte-identical for ``jobs=1``, ``jobs=8`` and any
completion interleaving.  Campaign-level content digests therefore stay
meaningful under parallelism — CI gates them, never wall time.

Mechanics
---------
* **Chunked work-stealing** — the parent enqueues fixed chunks of items
  on one shared task queue; idle workers pull the next chunk, so a slow
  item never staggers the whole schedule.
* **Per-worker guards** — a worker that exceeds the per-item wall-clock
  budget is killed (parent-side).  Its in-flight item, like that of a
  worker that dies on its own, becomes a *recorded failure* instead of a
  hung campaign; the rest of its chunk is requeued and a replacement
  worker is spawned (bounded respawn budget).  Each worker's RSS is
  sampled from ``/proc`` and its peak recorded, never enforced.
* **Checkpoint/resume** — with ``journal=...`` every resolved item is
  appended to a JSONL journal (see :mod:`repro.parallel.journal`); a
  rerun reuses completed items and retries failures.

Workers receive messages on private result queues (a killed worker can
tear its own pipe mid-write; a private queue confines the damage), while
the task queue is written only by the parent and is therefore kill-safe.

``jobs=1`` with no guards runs items inline in the parent — the serial
reference path the parallel digests are pinned against.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import os
import queue as queue_mod
import resource
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

from repro.digest import Digest
from repro.errors import ConfigError
from repro.parallel.journal import CampaignJournal

#: Parent event-loop poll interval (liveness, timeouts, RSS) in seconds.
_POLL_S = 0.05
#: Grace given to a worker between SIGTERM and SIGKILL.
_KILL_GRACE_S = 2.0
#: Sentinel telling a worker to exit.
_STOP = None


def _worker_ref(worker: Callable) -> str:
    return f"{worker.__module__}:{worker.__qualname__}"


def _chunk_size(n_items: int, jobs: int) -> int:
    # Small enough that stealing balances a skewed campaign, large enough
    # that queue traffic stays negligible: ~4 chunks per worker.
    return max(1, min(8, math.ceil(n_items / max(1, jobs * 4))))


def _rss_peak_mb() -> float:
    """This process's peak RSS in MB (ru_maxrss is KB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _proc_rss_mb(pid: int) -> Optional[float]:
    """Current RSS of ``pid`` in MB via /proc; None where unsupported."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) / 1024.0
    except (OSError, ValueError, IndexError):
        return None
    return None


@dataclass
class ItemResult:
    """Outcome of one sharded item."""

    key: str
    ok: bool
    value: Any = None
    error: Optional[str] = None
    wall_s: float = 0.0
    worker: int = -1
    resumed: bool = False

    def journal_entry(self) -> dict:
        return {"key": self.key, "ok": self.ok, "value": self.value,
                "error": self.error, "wall_s": round(self.wall_s, 3)}

    @classmethod
    def from_journal(cls, entry: dict) -> "ItemResult":
        return cls(key=entry["key"], ok=bool(entry.get("ok")),
                   value=entry.get("value"), error=entry.get("error"),
                   wall_s=float(entry.get("wall_s", 0.0)), resumed=True)


@dataclass
class FabricStats:
    """What the pool did to finish the campaign (never part of digests)."""

    jobs: int = 1
    chunks: int = 0
    workers_spawned: int = 0
    worker_deaths: int = 0
    timeouts: int = 0
    requeued_items: int = 0


@dataclass
class WorkerStats:
    """One worker's observed footprint (never part of digests).

    ``peak_rss_mb`` is the max of the worker's own ``ru_maxrss`` reports
    and the parent's ``/proc`` samples.
    """

    wid: int
    items_completed: int = 0
    peak_rss_mb: float = 0.0
    outcome: str = "ok"   # ok | killed:timeout | died


@dataclass
class ShardedRun:
    """Merged outcome of one :func:`run_sharded` campaign."""

    results: list[ItemResult]
    stats: FabricStats = field(default_factory=FabricStats)
    wall_s: float = 0.0
    #: Per-worker footprints, wid order (wall/RSS data — never digested).
    workers: list[WorkerStats] = field(default_factory=list)

    @property
    def peak_rss_mb(self) -> float:
        return max((w.peak_rss_mb for w in self.workers), default=0.0)

    @property
    def n_ok(self) -> int:
        return sum(1 for r in self.results if r.ok)

    @property
    def n_failed(self) -> int:
        return sum(1 for r in self.results if not r.ok)

    @property
    def n_resumed(self) -> int:
        return sum(1 for r in self.results if r.resumed)

    def failures(self) -> list[ItemResult]:
        return [r for r in self.results if not r.ok]

    def digest(self) -> str:
        """Order-independent content digest: results sorted by item key.

        Hashes only deterministic fields (key, verdict, JSON-canonical
        value) — wall clocks, worker ids and error prose never leak in,
        so ``jobs=1`` and ``jobs=N`` runs of a deterministic worker hash
        identically byte for byte.
        """
        h = Digest()
        for r in sorted(self.results, key=lambda r: r.key):
            payload = (json.dumps(r.value, sort_keys=True)
                       if r.ok else "failed")
            h.update(f"{r.key}\t{payload}\n")
        return h.hex()


# -- worker side --------------------------------------------------------------

def _worker_main(worker_id: int, worker: Callable, tasks, results,
                 console_path: Optional[str]) -> None:
    """Worker loop: pull a chunk, run its items, report each."""
    while True:
        chunk = tasks.get()
        if chunk is _STOP:
            results.put(("stopped", worker_id, None, None))
            return
        results.put(("chunk", worker_id, [key for key, _item in chunk],
                     None))
        for key, item in chunk:
            results.put(("start", worker_id, key, None))
            t0 = time.monotonic()
            try:
                value = worker(item)
                payload = {"ok": True, "value": value,
                           "wall_s": time.monotonic() - t0}
            except BaseException as exc:  # noqa: BLE001 — recorded, not fatal
                payload = {"ok": False,
                           "error": f"{type(exc).__name__}: {exc}",
                           "wall_s": time.monotonic() - t0}
            payload["rss_mb"] = _rss_peak_mb()
            results.put(("done", worker_id, key, payload))
            if console_path is not None:
                from repro.parallel.console import console_append
                console_append(console_path, {
                    "kind": "done", "wid": worker_id, "key": key,
                    "ok": payload["ok"],
                    "wall_s": round(payload["wall_s"], 3),
                    "rss_mb": round(payload["rss_mb"], 1),
                    "t": round(time.time(), 3)})


# -- parent side --------------------------------------------------------------

class _Worker:
    """Parent-side view of one worker process."""

    __slots__ = ("id", "proc", "results", "assigned", "current",
                 "started_at", "stopped", "stats")

    def __init__(self, wid: int, proc, results):
        self.id = wid
        self.proc = proc
        self.results = results
        #: Keys of the chunk the worker holds, not yet resolved.
        self.assigned: set[str] = set()
        self.current: Optional[str] = None
        self.started_at: float = 0.0
        self.stopped = False
        self.stats = WorkerStats(wid=wid)


class _Pool:
    """One campaign's worker pool + merge loop."""

    def __init__(self, worker: Callable, jobs: int,
                 timeout_s: Optional[float], mp_context: str, console):
        self.worker = worker
        self.jobs = jobs
        self.timeout_s = timeout_s
        self.ctx = multiprocessing.get_context(mp_context)
        self.stats = FabricStats(jobs=jobs)
        #: Optional :class:`~repro.parallel.console.ConsoleWriter`.
        self.console = console
        #: Per-worker footprints, kept across worker death/reap.
        self.worker_stats: dict[int, WorkerStats] = {}
        #: Bounded respawn budget: a deterministic crasher must not spawn
        #: workers forever (each retry fails again and eats budget).
        self.spawn_budget = jobs + max(4, 2 * jobs)
        self.workers: dict[int, _Worker] = {}
        self._next_wid = 0
        self.tasks = self.ctx.Queue()

    # -- lifecycle -------------------------------------------------------
    def _spawn(self) -> Optional[_Worker]:
        if self.spawn_budget <= 0:
            return None
        self.spawn_budget -= 1
        self.stats.workers_spawned += 1
        wid = self._next_wid
        self._next_wid += 1
        results = self.ctx.Queue()
        console_path = (self.console.path if self.console is not None
                        else None)
        proc = self.ctx.Process(
            target=_worker_main,
            args=(wid, self.worker, self.tasks, results, console_path),
            daemon=True, name=f"shard-worker-{wid}")
        # A spawned child only inherits PYTHONPATH, not the parent's
        # runtime sys.path — exporting it keeps ``repro`` importable in
        # the fresh interpreter no matter how the parent was launched.
        saved = os.environ.get("PYTHONPATH")
        os.environ["PYTHONPATH"] = os.pathsep.join(
            p for p in sys.path if p)
        try:
            proc.start()
        finally:
            if saved is None:
                os.environ.pop("PYTHONPATH", None)
            else:
                os.environ["PYTHONPATH"] = saved
        w = _Worker(wid, proc, results)
        self.workers[wid] = w
        self.worker_stats[wid] = w.stats
        if self.console is not None:
            self.console.event("spawn", wid=wid)
        return w

    def _kill(self, w: _Worker) -> None:
        w.proc.terminate()
        w.proc.join(_KILL_GRACE_S)
        if w.proc.is_alive():
            w.proc.kill()
            w.proc.join(_KILL_GRACE_S)
        w.stopped = True

    # -- failure paths ---------------------------------------------------
    def _fail_current(self, w: _Worker, error: str, resolve) -> None:
        if w.current is not None and w.current in w.assigned:
            resolve(ItemResult(key=w.current, ok=False, error=error,
                               worker=w.id))
            w.assigned.discard(w.current)
        w.current = None

    def _requeue(self, w: _Worker, pending_keys: set[str],
                 items_by_key: dict[str, Any]) -> None:
        """Give a dead worker's unstarted chunk remainder back to the pool."""
        keys = [k for k in w.assigned if k in pending_keys]
        w.assigned.clear()
        if keys:
            self.stats.requeued_items += len(keys)
            self.tasks.put([(k, items_by_key[k]) for k in keys])

    # -- main loop -------------------------------------------------------
    def run(self, chunks: list[list[tuple[str, Any]]],
            items_by_key: dict[str, Any], resolve,
            pending_keys: set[str], on_poll=None) -> None:
        for chunk in chunks:
            self.tasks.put(chunk)
        self.stats.chunks = len(chunks)
        for _ in range(min(self.jobs, max(1, len(chunks)))):
            self._spawn()
        stalled_polls = 0
        try:
            while pending_keys:
                progressed = self._drain(resolve, pending_keys)
                self._police(resolve, items_by_key, pending_keys)
                if on_poll is not None:
                    on_poll()
                if not self._ensure_liveness(resolve, items_by_key,
                                             pending_keys):
                    break
                if progressed:
                    stalled_polls = 0
                else:
                    stalled_polls += 1
                    if stalled_polls >= 40:  # ~2s of silence
                        self._unstick(items_by_key, pending_keys)
                        stalled_polls = 0
                    time.sleep(_POLL_S)
        finally:
            self._shutdown()

    def _unstick(self, items_by_key, pending_keys) -> None:
        """Backstop for a lost chunk claim.

        If a worker dies *between* pulling a chunk off the task queue and
        the parent draining its "chunk" message, those keys are tracked
        nowhere: the queue is empty, no live worker owns them, and the
        campaign would idle forever.  When everything has been silent for
        a while and no pending key is claimed anywhere, requeue the
        orphans — ``resolve`` is first-wins, so the worst case of a false
        alarm is harmless duplicate execution of a deterministic worker.
        """
        claimed: set[str] = set()
        for w in self.workers.values():
            if not w.stopped:
                claimed.update(w.assigned)
                if w.current is not None:
                    claimed.add(w.current)
        orphans = [k for k in pending_keys if k not in claimed]
        if not orphans:
            return
        try:
            queued = self.tasks.qsize()
        except NotImplementedError:  # platform without sem_getvalue
            queued = 1
        if queued == 0:
            self.stats.requeued_items += len(orphans)
            self.tasks.put([(k, items_by_key[k]) for k in orphans])

    def _drain(self, resolve, pending_keys: set[str]) -> bool:
        progressed = False
        for w in list(self.workers.values()):
            if w.stopped:
                # A killed worker may have torn its queue mid-put; a
                # stopped one has nothing after its final message.
                continue
            while True:
                try:
                    kind, wid, a, b = w.results.get_nowait()
                except queue_mod.Empty:
                    break
                except (EOFError, OSError):  # torn pipe from a kill
                    break
                progressed = True
                if kind == "chunk":
                    w.assigned.update(k for k in a if k in pending_keys)
                elif kind == "start":
                    w.current = a
                    w.started_at = time.monotonic()
                elif kind == "done":
                    if a in pending_keys:
                        resolve(ItemResult(
                            key=a, ok=b["ok"], value=b.get("value"),
                            error=b.get("error"),
                            wall_s=b.get("wall_s", 0.0), worker=wid))
                    w.assigned.discard(a)
                    if w.current == a:
                        w.current = None
                    w.stats.items_completed += 1
                    rss = b.get("rss_mb")
                    if rss is not None and rss > w.stats.peak_rss_mb:
                        w.stats.peak_rss_mb = rss
                elif kind == "stopped":
                    w.stopped = True
        return progressed

    def _police(self, resolve, items_by_key, pending_keys) -> None:
        """Enforce the per-item wall budget; sample each live worker's
        ``/proc`` RSS into its stats and the console stream."""
        now = time.monotonic()
        rss_by_wid: dict[int, float] = {}
        for w in list(self.workers.values()):
            if w.stopped or not w.proc.is_alive():
                continue
            if w.proc.pid:
                rss = _proc_rss_mb(w.proc.pid)
                if rss is not None:
                    rss_by_wid[w.id] = rss
                    if rss > w.stats.peak_rss_mb:
                        w.stats.peak_rss_mb = rss
            if (w.current is not None and self.timeout_s is not None
                    and now - w.started_at > self.timeout_s):
                self.stats.timeouts += 1
                w.stats.outcome = "killed:timeout"
                if self.console is not None:
                    self.console.event("kill", wid=w.id, reason="timeout")
                self._kill(w)
                self._fail_current(
                    w, f"timeout: exceeded {self.timeout_s}s budget",
                    resolve)
                self._requeue(w, pending_keys, items_by_key)
        if self.console is not None and rss_by_wid:
            self.console.rss_sample(rss_by_wid, pending=len(pending_keys))

    def _ensure_liveness(self, resolve, items_by_key,
                         pending_keys) -> bool:
        """Reap dead workers, respawn while work remains.

        Returns False when no progress is possible any more — remaining
        items are then failed by the caller's cleanup, never hung.
        """
        for wid, w in list(self.workers.items()):
            if not w.proc.is_alive():
                if not w.stopped:
                    self.stats.worker_deaths += 1
                    w.stats.outcome = "died"
                    if self.console is not None:
                        self.console.event("kill", wid=wid, reason="died")
                    self._fail_current(
                        w, "worker died "
                           f"(exitcode {w.proc.exitcode})", resolve)
                    self._requeue(w, pending_keys, items_by_key)
                del self.workers[wid]
        live = sum(1 for w in self.workers.values() if not w.stopped)
        want = min(self.jobs, len(pending_keys))
        while live < want:
            if self._spawn() is None:
                break
            live += 1
        if live == 0 and pending_keys:
            for key in sorted(pending_keys):
                resolve(ItemResult(
                    key=key, ok=False,
                    error="worker respawn budget exhausted"))
            return False
        return True

    def _shutdown(self) -> None:
        for _ in self.workers:
            self.tasks.put(_STOP)
        deadline = time.monotonic() + _KILL_GRACE_S
        for w in self.workers.values():
            w.proc.join(max(0.0, deadline - time.monotonic()))
            if w.proc.is_alive():
                w.proc.kill()
                w.proc.join(_KILL_GRACE_S)
        self.tasks.cancel_join_thread()
        self.tasks.close()
        for w in self.workers.values():
            w.results.cancel_join_thread()
            w.results.close()


# -- entry point --------------------------------------------------------------

def run_sharded(items: Sequence[Any], worker: Callable[[Any], Any],
                jobs: int = 1, *,
                key: Optional[Callable[[Any], str]] = None,
                timeout_s: Optional[float] = None,
                journal: "Optional[str]" = None,
                console: "Optional[str]" = None,
                on_poll: Optional[Callable[[], None]] = None,
                mp_context: str = "spawn") -> ShardedRun:
    """Run ``worker(item)`` for every item, sharded over ``jobs`` processes.

    ``worker`` must be a module-level callable returning a
    JSON-serializable value (it crosses a process boundary and lands in
    digests/journals).  Results come back in *input item order* no matter
    how execution interleaved; :meth:`ShardedRun.digest` is the
    sort-by-key content digest campaigns pin in CI.

    ``jobs=1`` without ``timeout_s`` runs inline (the serial reference
    path).  A ``timeout_s`` forces the pool even for one job, because the
    budget needs a killable process boundary.

    ``console=PATH`` appends a live progress/RSS sidecar stream (see
    :mod:`repro.parallel.console`); ``on_poll`` is invoked repeatedly
    from the parent's event loop (and between items on the serial path)
    — the CLI hangs its ``\\r`` status line off it.  Neither affects
    results or digests.
    """
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    key_fn = key if key is not None else lambda item: str(item)
    keyed = [(key_fn(item), item) for item in items]
    keys = [k for k, _ in keyed]
    if len(set(keys)) != len(keys):
        dupes = sorted({k for k in keys if keys.count(k) > 1})
        raise ConfigError(f"item keys must be unique; duplicates: "
                          f"{dupes[:5]}")

    jnl: Optional[CampaignJournal] = None
    resumed: dict[str, dict] = {}
    if journal is not None:
        jnl = CampaignJournal(journal, _worker_ref(worker), keys)
        resumed = jnl.load()
        jnl.open()

    by_key: dict[str, ItemResult] = {
        k: ItemResult.from_journal(entry) for k, entry in resumed.items()}
    pending = [(k, item) for k, item in keyed if k not in by_key]
    stats = FabricStats(jobs=jobs)
    worker_stats: list[WorkerStats] = []
    writer = None
    if console is not None:
        from repro.parallel.console import ConsoleWriter
        writer = ConsoleWriter(console, worker_ref=_worker_ref(worker),
                               total=len(pending), jobs=jobs)
    t0 = time.monotonic()

    def resolve(result: ItemResult) -> None:
        if result.key in by_key:
            return  # late duplicate after a requeue — first wins
        by_key[result.key] = result
        if jnl is not None:
            jnl.append(result.journal_entry())

    try:
        if jobs == 1 and timeout_s is None:
            serial = WorkerStats(wid=0)
            if pending:
                worker_stats.append(serial)
                if writer is not None:
                    writer.event("spawn", wid=0)
            for k, item in pending:
                item_t0 = time.monotonic()
                try:
                    value = worker(item)
                    result = ItemResult(
                        key=k, ok=True, value=value,
                        wall_s=time.monotonic() - item_t0, worker=0)
                except Exception as exc:  # noqa: BLE001 — recorded
                    result = ItemResult(
                        key=k, ok=False,
                        error=f"{type(exc).__name__}: {exc}",
                        wall_s=time.monotonic() - item_t0, worker=0)
                resolve(result)
                serial.items_completed += 1
                serial.peak_rss_mb = max(serial.peak_rss_mb,
                                         _rss_peak_mb())
                if writer is not None:
                    writer.event("done", wid=0, key=k, ok=result.ok,
                                 wall_s=round(result.wall_s, 3),
                                 rss_mb=round(serial.peak_rss_mb, 1))
                if on_poll is not None:
                    on_poll()
        elif pending:
            size = _chunk_size(len(pending), jobs)
            chunks = [pending[i:i + size]
                      for i in range(0, len(pending), size)]
            pool = _Pool(worker, jobs, timeout_s, mp_context, writer)
            pool.run(chunks, dict(pending), resolve,
                     pending_keys=_PendingView(by_key, keys),
                     on_poll=on_poll)
            stats = pool.stats
            worker_stats = [pool.worker_stats[wid]
                            for wid in sorted(pool.worker_stats)]
    finally:
        if jnl is not None:
            jnl.close()

    results = [by_key[k] for k in keys]
    run_out = ShardedRun(results=results, stats=stats,
                         wall_s=round(time.monotonic() - t0, 3),
                         workers=worker_stats)
    if writer is not None:
        writer.event("end", ok=run_out.n_ok, failed=run_out.n_failed,
                     wall_s=run_out.wall_s)
    return run_out


class _PendingView:
    """Live 'unresolved keys' set view over the results dict.

    The pool treats it as a set: membership, iteration, truthiness and
    ``discard`` all reflect the authoritative ``by_key`` map, so resolve
    order can never desynchronize a separate bookkeeping copy.
    """

    def __init__(self, by_key: dict[str, ItemResult], keys: list[str]):
        self._by_key = by_key
        self._keys = keys
        self._keyset = set(keys)

    def __contains__(self, key: str) -> bool:
        return key not in self._by_key and key in self._keyset

    def __iter__(self):
        return iter([k for k in self._keys if k not in self._by_key])

    def __len__(self) -> int:
        return sum(1 for k in self._keys if k not in self._by_key)

    def __bool__(self) -> bool:
        return any(k not in self._by_key for k in self._keys)

    def discard(self, key: str) -> None:  # resolution already recorded it
        pass
