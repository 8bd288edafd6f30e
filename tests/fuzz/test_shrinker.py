"""Shrinker properties: minimization preserves the violation, repro files
round-trip, and the budget bounds work.

A stubbed runner keeps these tests fast: the "platform bug" is a
predicate over the scenario, so the shrinker's search behaviour can be
pinned without simulating anything.
"""

import json
import time

import pytest

from repro.errors import ConfigError
from repro.fuzz import (FuzzRunResult, ShrinkResult, Shrinker, Violation,
                        generate_scenario, load_repro, write_repro)
from repro.fuzz import shrinker as shrinker_mod
from repro.fuzz.invariants import RunContext


def fake_runner(predicate, invariant="crash"):
    """A run_scenario stand-in: violates ``invariant`` iff predicate."""
    def run(scenario):
        violations = []
        if predicate(scenario):
            violations.append(Violation(invariant, "stub detail"))
        return FuzzRunResult(scenario=scenario, violations=violations,
                             context=RunContext(scenario=scenario),
                             run_digest="0" * 16)
    return run


def find_seed_with(predicate, start=0):
    for seed in range(start, start + 500):
        s = generate_scenario(seed)
        if predicate(s):
            return s
    raise AssertionError("no matching seed in range")


class TestShrink:
    def test_preserves_violation_and_minimizes(self):
        # "Bug": any scenario with at least one fault fails.
        scenario = find_seed_with(lambda s: len(s.faults) >= 2
                                  and len(s.jobs) >= 2)
        runner = fake_runner(lambda s: len(s.faults) >= 1)
        result = Shrinker(runner=runner).shrink(
            scenario, Violation("crash", "seed violation"))
        assert result.violation.invariant == "crash"
        # Minimal: can't drop the last fault, and jobs shrink to one.
        assert len(result.scenario.faults) == 1
        assert len(result.scenario.jobs) == 1
        assert runner(result.scenario).violations

    def test_result_scenario_always_validates(self):
        scenario = find_seed_with(lambda s: s.faults and s.n_vms > 3)
        runner = fake_runner(lambda s: True)
        result = Shrinker(runner=runner).shrink(
            scenario, Violation("crash", "x"))
        result.scenario.validate()  # shrunk repro must stay executable

    def test_different_invariant_does_not_count(self):
        scenario = generate_scenario(0)
        runner = fake_runner(lambda s: True, invariant="output")
        result = Shrinker(runner=runner).shrink(
            scenario, Violation("crash", "x"))
        # Nothing matched the target name: the scenario is unchanged.
        assert result.scenario == scenario

    def test_budget_bounds_candidate_runs(self):
        scenario = find_seed_with(lambda s: len(s.faults) >= 2)
        calls = []
        base = fake_runner(lambda s: True)

        def counting(s):
            calls.append(1)
            return base(s)
        shrinker = Shrinker(budget=5, runner=counting)
        shrinker.shrink(scenario, Violation("crash", "x"))
        assert len(calls) <= 5


def _always_violates(scenario):
    """run_scenario stand-in used *inside* the guard child (fork-inherited)."""
    return FuzzRunResult(scenario=scenario,
                         violations=[Violation("crash", "guarded detail",
                                               job="job-0")],
                         context=RunContext(scenario=scenario),
                         run_digest="0" * 16)


def _never_returns(scenario):
    time.sleep(60.0)


class TestGuardedCandidates:
    """candidate_timeout_s runs each candidate in a killable child.

    The stubs monkeypatch ``run_scenario`` *in the shrinker module* and
    rely on the fork start method: the child inherits the patched global,
    so no scenario is ever simulated here.
    """

    def _shrinker(self, timeout_s):
        return Shrinker(candidate_timeout_s=timeout_s, mp_context="fork")

    def test_timeout_requires_default_runner(self):
        with pytest.raises(ConfigError, match="custom runner"):
            Shrinker(runner=lambda s: None, candidate_timeout_s=1.0)

    def test_timeout_must_be_positive(self):
        with pytest.raises(ConfigError, match="> 0"):
            Shrinker(candidate_timeout_s=0.0)

    def test_violation_round_trips_through_the_guard(self, monkeypatch):
        monkeypatch.setattr(shrinker_mod, "run_scenario", _always_violates)
        shrinker = self._shrinker(timeout_s=30.0)
        violation = shrinker._still_fails(generate_scenario(0), "crash")
        assert violation == Violation("crash", "guarded detail", job="job-0")
        assert shrinker.runs == 1 and shrinker.timeouts == 0

    def test_nonmatching_invariant_rejected(self, monkeypatch):
        monkeypatch.setattr(shrinker_mod, "run_scenario", _always_violates)
        shrinker = self._shrinker(timeout_s=30.0)
        assert shrinker._still_fails(generate_scenario(0), "output") is None

    def test_timed_out_candidate_is_rejected_and_counted(self, monkeypatch):
        monkeypatch.setattr(shrinker_mod, "run_scenario", _never_returns)
        shrinker = self._shrinker(timeout_s=0.3)
        assert shrinker._still_fails(generate_scenario(0), "crash") is None
        assert shrinker.timeouts == 1
        # A rejected candidate still spent a run from the budget.
        assert shrinker.runs == 1


class TestReproFiles:
    def make_result(self):
        scenario = generate_scenario(7)
        return ShrinkResult(scenario=scenario,
                            violation=Violation("output", "detail",
                                                job="wordcount-0"))

    def test_write_then_load_roundtrip(self, tmp_path):
        result = self.make_result()
        path = write_repro(result, tmp_path / "repro.json")
        scenario, violation = load_repro(path)
        assert scenario == result.scenario
        assert violation == result.violation

    def test_corrupt_digest_rejected(self, tmp_path):
        result = self.make_result()
        path = write_repro(result, tmp_path / "repro.json")
        text = path.read_text().replace('"n_vms": ', '"n_vms": 1')
        path.write_text(text)
        with pytest.raises(ConfigError):
            load_repro(path)

    @pytest.mark.parametrize("mutate, names", [
        (lambda text: text[:len(text) // 2], "repro.json"),
        (lambda text: _edit(text, lambda d: d["scenario"].pop("topology")),
         "'topology' is missing"),
        (lambda text: _edit(text, lambda d: d["scenario"].update(
            n_vms="many")), "'n_vms' is not a valid int"),
        (lambda text: json.dumps([json.loads(text)]), "repro.json"),
    ], ids=["truncated", "no-topology", "n_vms-not-int", "top-level-list"])
    def test_malformed_file_raises_config_error_naming_it(self, tmp_path,
                                                          mutate, names):
        path = write_repro(self.make_result(), tmp_path / "repro.json")
        path.write_text(mutate(path.read_text()))
        with pytest.raises(ConfigError, match=names):
            load_repro(path)


def _edit(text, change):
    data = json.loads(text)
    change(data)
    return json.dumps(data)
