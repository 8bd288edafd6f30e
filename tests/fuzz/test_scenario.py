"""Generator and scenario-format properties.

The fuzzer's replayability rests on two contracts: a seed expands to the
same scenario every time (generator determinism), and a scenario survives
the serialize → parse round trip with its digest intact (repro files stay
valid forever).
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.fuzz import (FORMAT_VERSION, FuzzFault, FuzzJob, KnobSample,
                        Scenario, ScenarioGenerator, corpus_digest,
                        generate_scenario, generate_scenarios)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000))
def test_roundtrip_preserves_digest(seed):
    scenario = generate_scenario(seed)
    clone = Scenario.from_dict(json.loads(scenario.to_json()))
    assert clone == scenario
    assert clone.digest() == scenario.digest()


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000))
def test_generator_is_deterministic(seed):
    assert generate_scenario(seed) == generate_scenario(seed)
    assert (ScenarioGenerator(seed).generate().digest()
            == ScenarioGenerator(seed).generate().digest())


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_generated_scenarios_validate(seed):
    scenario = generate_scenario(seed)
    scenario.validate()  # must not raise
    assert 3 <= scenario.n_vms
    assert scenario.knobs.dfs_replication >= 1


def test_adjacent_seeds_differ():
    digests = {generate_scenario(seed).digest() for seed in range(50)}
    assert len(digests) == 50


def test_corpus_digest_is_order_sensitive_and_stable():
    scenarios = generate_scenarios(range(5))
    assert corpus_digest(scenarios) == corpus_digest(
        generate_scenarios(range(5)))
    assert corpus_digest(scenarios) != corpus_digest(scenarios[::-1])


def test_without_rederives_digest():
    scenario = generate_scenario(3)
    trimmed = scenario.without(faults=())
    assert trimmed.faults == ()
    assert trimmed.digest() != scenario.digest() or not scenario.faults


def test_crash_outage_windows_are_disjoint():
    margin = ScenarioGenerator.CRASH_MARGIN_S
    for seed in range(300):
        windows = []
        for f in generate_scenario(seed).faults:
            if f.kind not in ("vm.crash", "host.crash"):
                continue
            end = (float("inf") if f.duration == 0.0
                   else f.at + f.duration + margin)
            windows.append((f.at, end))
        windows.sort()
        for (_, prev_end), (start, _) in zip(windows, windows[1:]):
            assert start >= prev_end


def test_format_version_guard():
    data = generate_scenario(0).to_dict()
    data["format"] = FORMAT_VERSION + 1
    with pytest.raises(ConfigError):
        Scenario.from_dict(data)


def test_invalid_scenarios_rejected():
    base = generate_scenario(0)
    with pytest.raises(ConfigError):
        base.without(n_vms=1).validate()
    with pytest.raises(ConfigError):
        base.without(jobs=(FuzzJob(kind="sort-of-wrong", size_mb=4,
                                   n_reduces=1, pool="p"),)).validate()
    with pytest.raises(ConfigError):
        base.without(faults=(FuzzFault(at=-1.0, kind="vm.crash",
                                       scope="worker", index=0),)).validate()
    with pytest.raises(ConfigError):
        base.without(knobs=KnobSample(dfs_replication=0)).validate()
