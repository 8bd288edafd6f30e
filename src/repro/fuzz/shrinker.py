"""Delta-debugging shrinker: minimize a failing scenario.

Given a scenario that violates an invariant, the shrinker searches for a
smaller scenario that *still violates the same invariant* (matched by
name — ``"output"`` stays ``"output"``, the detail text may drift).  It
runs greedy fixpoint passes, cheapest-first:

1. drop faults, adversaries and jobs one at a time (ddmin's granularity-1
   pass — scenario lists are short enough that the full ddmin cascade
   buys nothing);
2. shrink the topology (fewer racks/hosts/VMs);
3. canonicalize knobs, job fields and fault fields toward defaults.

Every accepted candidate re-validates and re-runs, so a shrunk repro is
always an executable scenario; the result serializes to a replayable
repro file (``write_repro`` / ``load_repro``) that regression tests pin.

Shrinking explores scenarios the fuzzer never generated, so a candidate
can be pathologically slow even when the original run was not.  A
``candidate_timeout_s`` budget runs each candidate through
:func:`repro.parallel.call_guarded` — a killable worker process — and
treats a timeout as a rejected candidate: the shrink stays correct, it
just declines that direction.  The guard costs a process spawn per
candidate, so it is off by default and meant for campaign/CI shrinks,
not interactive ones.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Optional

from repro.errors import ConfigError
from repro.fuzz.execute import FuzzRunResult, run_scenario
from repro.fuzz.invariants import Violation
from repro.fuzz.scenario import FORMAT_VERSION, KnobSample, Scenario
from repro.parallel import call_guarded

#: Default cap on candidate runs per shrink (each run is a full scenario).
DEFAULT_BUDGET = 150


def _guarded_candidate(payload: dict) -> dict:
    """Module-level worker (pickled by reference into the guard process):
    run one candidate scenario, return its violations as plain dicts."""
    scenario = Scenario.from_dict(payload)
    result = run_scenario(scenario)
    return {"violations": [{"invariant": v.invariant, "detail": v.detail,
                            "job": v.job} for v in result.violations]}


@dataclass
class ShrinkResult:
    """The minimized scenario and the violation it preserves."""

    scenario: Scenario
    violation: Violation
    runs: int = 0                      # candidate executions spent
    removed: dict = field(default_factory=dict)  # what shrinking dropped

    def summary(self) -> str:
        s = self.scenario
        return (f"seed={s.seed} {len(s.jobs)} jobs, {len(s.faults)} faults, "
                f"{len(s.adversaries)} adversaries, {s.n_vms} VMs -> "
                f"{self.violation.invariant}")


class Shrinker:
    """Minimizes scenarios while preserving an invariant violation."""

    def __init__(self, budget: int = DEFAULT_BUDGET,
                 runner: Optional[Callable[[Scenario], FuzzRunResult]] = None,
                 candidate_timeout_s: Optional[float] = None,
                 mp_context: str = "spawn"):
        if candidate_timeout_s is not None and runner is not None:
            raise ConfigError(
                "candidate_timeout_s runs candidates in a worker process "
                "with the default runner; a custom runner cannot be "
                "combined with it")
        if candidate_timeout_s is not None and candidate_timeout_s <= 0:
            raise ConfigError(f"candidate_timeout_s must be > 0, "
                              f"got {candidate_timeout_s}")
        self.budget = budget
        self.runner = runner or run_scenario
        self.candidate_timeout_s = candidate_timeout_s
        self.mp_context = mp_context
        self.runs = 0
        #: Candidates rejected because their guarded run hit the budget.
        self.timeouts = 0

    # -- public ------------------------------------------------------------
    def shrink(self, scenario: Scenario, violation: Violation
               ) -> ShrinkResult:
        """Greedy fixpoint minimization preserving ``violation.invariant``."""
        self.runs = 0
        target = violation.invariant
        current, current_violation = scenario, violation
        before = (len(scenario.jobs), len(scenario.faults),
                  len(scenario.adversaries), scenario.n_vms)
        changed = True
        while changed and self.runs < self.budget:
            changed = False
            for pass_fn in (self._drop_faults, self._drop_adversaries,
                            self._drop_jobs, self._shrink_topology,
                            self._canonicalize):
                candidate = pass_fn(current, target)
                if candidate is not None:
                    current, current_violation = candidate
                    changed = True
        after = (len(current.jobs), len(current.faults),
                 len(current.adversaries), current.n_vms)
        removed = {"jobs": before[0] - after[0],
                   "faults": before[1] - after[1],
                   "adversaries": before[2] - after[2],
                   "vms": before[3] - after[3]}
        return ShrinkResult(scenario=current, violation=current_violation,
                            runs=self.runs, removed=removed)

    # -- candidate acceptance ----------------------------------------------
    def _still_fails(self, candidate: Scenario, target: str
                     ) -> Optional[Violation]:
        """Run a candidate; the violation if it still breaks ``target``."""
        if self.runs >= self.budget:
            return None
        try:
            candidate.validate()
        except ConfigError:
            return None
        self.runs += 1
        if self.candidate_timeout_s is not None:
            guarded = call_guarded(_guarded_candidate, candidate.to_dict(),
                                   timeout_s=self.candidate_timeout_s,
                                   mp_context=self.mp_context)
            if not guarded.ok:
                # Timed out (or died): reject the candidate — the shrink
                # stays sound, it just keeps the larger parent.
                if guarded.timed_out:
                    self.timeouts += 1
                return None
            for v in guarded.value["violations"]:
                if v["invariant"] == target:
                    return Violation(invariant=v["invariant"],
                                     detail=v["detail"], job=v.get("job"))
            return None
        result = self.runner(candidate)
        for violation in result.violations:
            if violation.invariant == target:
                return violation
        return None

    def _try(self, candidate: Scenario, target: str
             ) -> Optional[tuple[Scenario, Violation]]:
        violation = self._still_fails(candidate, target)
        if violation is None:
            return None
        return candidate, violation

    # -- passes --------------------------------------------------------------
    def _drop_faults(self, scenario: Scenario, target: str):
        for i in range(len(scenario.faults)):
            faults = scenario.faults[:i] + scenario.faults[i + 1:]
            hit = self._try(scenario.without(faults=faults), target)
            if hit is not None:
                return hit
        return None

    def _drop_adversaries(self, scenario: Scenario, target: str):
        for i in range(len(scenario.adversaries)):
            adv = scenario.adversaries[:i] + scenario.adversaries[i + 1:]
            hit = self._try(scenario.without(adversaries=adv), target)
            if hit is not None:
                return hit
        return None

    def _drop_jobs(self, scenario: Scenario, target: str):
        if len(scenario.jobs) <= 1:
            return None
        for i in range(len(scenario.jobs)):
            jobs = scenario.jobs[:i] + scenario.jobs[i + 1:]
            hit = self._try(scenario.without(jobs=jobs), target)
            if hit is not None:
                return hit
        return None

    def _shrink_topology(self, scenario: Scenario, target: str):
        candidates = []
        if scenario.racks > 1:
            candidates.append(scenario.without(racks=scenario.racks - 1))
        if scenario.hosts_per_rack > 1:
            candidates.append(scenario.without(
                hosts_per_rack=scenario.hosts_per_rack - 1))
        if scenario.vms_per_host > 2:
            candidates.append(scenario.without(
                vms_per_host=scenario.vms_per_host - 1))
        if scenario.n_vms > 3:
            candidates.append(scenario.without(n_vms=scenario.n_vms - 1))
        if scenario.layout != "packed":
            candidates.append(scenario.without(layout="packed"))
        for candidate in candidates:
            hit = self._try(candidate, target)
            if hit is not None:
                return hit
        return None

    def _canonicalize(self, scenario: Scenario, target: str):
        """Round knobs, jobs and faults toward their defaults."""
        defaults = KnobSample()
        for name in ("map_slots", "reduce_slots", "dfs_replication",
                     "policy", "speculation", "use_combiner"):
            value = getattr(scenario.knobs, name)
            default = getattr(defaults, name)
            if value != default:
                knobs = replace(scenario.knobs, **{name: default})
                hit = self._try(scenario.without(knobs=knobs), target)
                if hit is not None:
                    return hit
        for i, job in enumerate(scenario.jobs):
            for change in ({"size_mb": 4}, {"n_reduces": 1},
                           {"pool": "default"}):
                if all(getattr(job, k) == v for k, v in change.items()):
                    continue
                jobs = (scenario.jobs[:i] + (replace(job, **change),)
                        + scenario.jobs[i + 1:])
                hit = self._try(scenario.without(jobs=jobs), target)
                if hit is not None:
                    return hit
        for i, fault in enumerate(scenario.faults):
            changes = [{"at": float(int(fault.at))},
                       {"factor": 2.0}]
            if fault.duration > 10.0:
                changes.append({"duration": 10.0})
            for change in changes:
                if all(getattr(fault, k) == v for k, v in change.items()):
                    continue
                faults = (scenario.faults[:i] + (replace(fault, **change),)
                          + scenario.faults[i + 1:])
                hit = self._try(scenario.without(faults=faults), target)
                if hit is not None:
                    return hit
        return None


# -- repro files --------------------------------------------------------------

def repro_dict(result: ShrinkResult) -> dict:
    return {
        "format": FORMAT_VERSION,
        "scenario": result.scenario.to_dict(),
        "violation": {"invariant": result.violation.invariant,
                      "detail": result.violation.detail,
                      "job": result.violation.job},
        "scenario_digest": result.scenario.digest(),
    }


def write_repro(result: ShrinkResult, path: "str | Path") -> Path:
    """Serialize a shrunk repro for replay (regression corpus format)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(repro_dict(result), sort_keys=True, indent=2)
                    + "\n")
    return path


def load_repro(path: "str | Path") -> tuple[Scenario, Violation]:
    """Read a repro file back into (scenario, expected violation); a
    malformed file raises :class:`ConfigError` naming it."""
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"repro file {path} is not valid JSON: {exc}"
                          ) from None
    if not isinstance(data, dict):
        raise ConfigError(f"repro file {path} must hold a JSON object, got "
                          f"{type(data).__name__}")
    if data.get("format") != FORMAT_VERSION:
        raise ConfigError(f"unsupported repro format {data.get('format')!r}")
    try:
        scenario = Scenario.from_dict(data.get("scenario"))
    except ConfigError as exc:
        raise ConfigError(f"repro file {path}: {exc}") from None
    if scenario.digest() != data.get("scenario_digest"):
        raise ConfigError(
            f"repro file {path} is corrupt: scenario digest mismatch")
    v = data.get("violation")
    if not isinstance(v, dict) or not {"invariant", "detail"} <= v.keys():
        raise ConfigError(f"repro file {path} needs a 'violation' object "
                          f"with 'invariant' and 'detail'")
    return scenario, Violation(invariant=v["invariant"], detail=v["detail"],
                               job=v.get("job"))


def replay_repro(path: "str | Path") -> FuzzRunResult:
    """Re-run a repro file's scenario (regression check entry point)."""
    scenario, _expected = load_repro(path)
    return run_scenario(scenario)
