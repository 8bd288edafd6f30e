"""Fuzz campaign — the adversarial autopilot as a CLI experiment.

Expands a contiguous seed range into scenarios, runs each against the
platform, and judges every run with the
:class:`~repro.fuzz.invariants.InvariantSuite`.  The table lists only
the failing seeds (an empty table is the goal); the notes carry the
aggregate verdict plus two content digests:

``corpus digest``
    Hash of the generated scenarios — pins the generator itself, so a
    generator change that silently re-maps seeds is caught even when
    every run still passes.

``campaign digest``
    Hash over every run's trace-derived ``run_digest`` — pins platform
    *behaviour* across the whole campaign.  CI gates on these digests,
    never on wall time.

``--replay PATH`` runs a single shrunk repro file instead (the format
written by :func:`repro.fuzz.write_repro`), reporting whether the
pinned invariant still fires.

Seeds are independent, so the campaign rides the
:mod:`repro.parallel` fabric: ``--jobs N`` shards the seed range over N
worker processes and the merge is order-independent — both digests are
byte-identical for ``--jobs 1``, ``--jobs 8``, and any interleaving
(the CI ``campaign`` job pins exactly that).  ``--journal PATH``
checkpoints resolved seeds so an interrupted campaign resumes instead
of restarting.
"""

from __future__ import annotations

import sys
import time
from typing import Optional

from repro.digest import Digest
from repro.errors import ConfigError
from repro.experiments.common import ExperimentResult
from repro.fuzz import (corpus_digest, generate_scenario, load_repro,
                        replay_repro, run_scenario, summarize)
from repro.parallel import run_sharded

#: Default seed window for ``vhadoop fuzz`` / ``vhadoop all``.
DEFAULT_SEEDS = (0, 50)
QUICK_SEEDS = (0, 10)


def parse_seed_range(text: str) -> tuple[int, int]:
    """``"A:B"`` → ``(A, B)``, the half-open seed window."""
    try:
        lo_s, hi_s = text.split(":", 1)
        lo, hi = int(lo_s), int(hi_s)
    except ValueError:
        raise ConfigError(
            f"--seed-range wants 'LO:HI' (half-open), got {text!r}") from None
    if lo < 0 or hi <= lo:
        raise ConfigError(f"seed range {text!r} is empty or negative")
    return lo, hi


def _run_seed(seed: int) -> dict:
    """Fabric worker: one seed end to end, summarized as plain JSON.

    Must stay module-level (it crosses a process boundary by reference)
    and must return only what the merged report needs — the digest, the
    verdict, and the table row — not the full run context.
    """
    scenario = generate_scenario(seed)
    run_result = run_scenario(scenario)
    return {
        "run_digest": run_result.run_digest,
        "ok": run_result.ok,
        "invariants": sorted({v.invariant
                              for v in run_result.violations}),
        "jobs": len(scenario.jobs),
        "faults": len(scenario.faults),
        "advs": len(scenario.adversaries),
    }


def run(seeds: tuple[int, int] = DEFAULT_SEEDS, jobs: int = 1,
        journal: Optional[str] = None, console: Optional[str] = None,
        live: bool = False) -> ExperimentResult:
    """Run the campaign over ``[lo, hi)`` and tabulate any violations.

    ``jobs`` shards the seeds over that many worker processes; the
    digests are byte-identical to the serial path regardless.

    ``console`` names a sidecar JSONL stream: workers and the parent
    append progress/RSS records to it, and after the run a control-room
    HTML report lands at the stream path with ``.html`` appended.
    ``live`` additionally renders a ``\\r`` status line to stderr while
    the campaign runs.  The control-room digest in the notes hashes only
    sim-time content, so it is byte-identical across processes and
    ``--jobs`` levels even though the stream itself is wall-clock data.
    """
    lo, hi = seeds
    result = ExperimentResult(
        experiment_id="fuzz",
        title=f"Fuzz campaign: seeds {lo}..{hi} vs the invariant suite",
        columns=("seed", "jobs", "faults", "advs", "violations"))
    scenarios = [generate_scenario(seed) for seed in range(lo, hi)]

    tailer = None
    on_poll = None
    if console is not None:
        from repro.parallel import ConsoleTailer
        tailer = ConsoleTailer(console)
        last_render = [0.0]

        def on_poll() -> None:
            now = time.monotonic()
            if now - last_render[0] < 0.5:
                return
            last_render[0] = now
            tailer.poll()
            if live:
                print("\r" + tailer.status_line(), end="",
                      file=sys.stderr, flush=True)

    sharded = run_sharded(list(range(lo, hi)), _run_seed, jobs=jobs,
                          journal=journal, console=console,
                          on_poll=on_poll)
    # The campaign digest folds run digests in ascending-seed order —
    # the fabric returns results in input order, so this line is
    # byte-identical to the pre-fabric serial loop.
    campaign = Digest()
    failing = 0
    fabric_failures = 0
    for seed, item in zip(range(lo, hi), sharded.results):
        if not item.ok:  # worker death/timeout — environmental, recorded
            fabric_failures += 1
            campaign.update(f"{seed}:fabric-error\n")
            result.add(seed, "-", "-", "-", f"fabric: {item.error}")
            continue
        payload = item.value
        campaign.update(f"{seed}:{payload['run_digest']}\n")
        if not payload["ok"]:
            failing += 1
            result.add(seed, payload["jobs"], payload["faults"],
                       payload["advs"], "; ".join(payload["invariants"]))
    result.note(f"{hi - lo} scenarios, {failing} with violations"
                + ("" if failing or fabric_failures
                   else " — all invariants held"))
    if fabric_failures:
        result.note(f"{fabric_failures} seeds lost to worker failures "
                    "(digest poisoned with fabric-error markers)")
    if jobs > 1:
        result.note(f"sharded over {jobs} worker processes")
    if sharded.n_resumed:
        result.note(f"{sharded.n_resumed} seeds resumed from journal")
    result.note(f"corpus digest: {corpus_digest(scenarios)}")
    result.note(f"campaign digest: {campaign.hex()}")

    if console is not None:
        from repro.experiments.service import burn_timelines
        from repro.parallel import control_room_digest, write_control_room
        tailer.poll()
        if live:
            print("\r" + tailer.status_line(), file=sys.stderr, flush=True)
        burn_series, burn_digests = burn_timelines()
        digest = control_room_digest(sharded.digest(), campaign.hex(),
                                     burn_digests)
        html_path = console + ".html"
        write_control_room(
            html_path, tailer,
            title=f"fuzz seeds {lo}:{hi} x{jobs} jobs",
            digest=digest,
            notes=[f"campaign digest {campaign.hex()}",
                   f"corpus digest {corpus_digest(scenarios)}",
                   f"{failing} failing seeds, {fabric_failures} "
                   f"fabric failures",
                   "burn-rate timelines from the quick burst-on "
                   "service universe (sim-time, deterministic)"],
            series=burn_series)
        if sharded.workers:
            result.note(
                f"fleet peak rss {sharded.peak_rss_mb:.0f} MB over "
                f"{len(sharded.workers)} workers "
                f"({sum(w.items_completed for w in sharded.workers)} "
                f"items)")
        result.note(f"control room: {html_path}")
        result.note(f"control room digest: {digest}")
    return result


def replay(path: str) -> ExperimentResult:
    """Replay one shrunk repro file and report on its pinned invariant."""
    scenario, pinned = load_repro(path)
    run_result = replay_repro(path)
    result = ExperimentResult(
        experiment_id="fuzz",
        title=f"Repro replay: {path}",
        columns=("digest", "jobs", "faults", "pinned invariant", "verdict"))
    violated = {v.invariant for v in run_result.violations}
    verdict = ("STILL FAILING" if pinned.invariant in violated
               else "fixed (pinned invariant holds)")
    result.add(scenario.digest(), len(scenario.jobs), len(scenario.faults),
               pinned.invariant, verdict)
    result.note(f"run: {summarize(run_result.violations)}")
    result.note(f"run digest: {run_result.run_digest}")
    return result
