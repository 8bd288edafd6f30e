"""The scenario fuzzer: generate, run, check, shrink, replay.

The platform's adversarial autopilot.  One integer seed deterministically
expands into a full :class:`~repro.fuzz.scenario.Scenario` — workload
mix, tenant pools, adversarial actors, fault schedule, topology and
config knobs — which :func:`~repro.fuzz.execute.run_scenario` executes
against the platform and judges with the
:class:`~repro.fuzz.invariants.InvariantSuite` (exactly-once counters,
output correctness vs the fault-free oracle, recovery convergence,
accounting conservation, quiet clean runs).  Failures are minimized by
the delta-debugging :class:`~repro.fuzz.shrinker.Shrinker` into
replayable repro files that the regression corpus under
``tests/fuzz/regressions/`` pins forever.
"""

from repro.fuzz.execute import (LIVENESS_S, SETTLE_S, FuzzRunResult,
                                MaterializedJob, expected_failed_workers,
                                materialize_jobs, resolve_faults,
                                run_scenario)
from repro.fuzz.invariants import (InvariantSuite, JobOutcome, RunContext,
                                   Violation, summarize)
from repro.fuzz.scenario import (FORMAT_VERSION, JOB_KINDS, LAYOUTS,
                                 POLICIES, FuzzFault, FuzzJob, KnobSample,
                                 Scenario, ScenarioGenerator, corpus_digest,
                                 generate_scenario, generate_scenarios)
from repro.fuzz.shrinker import (ShrinkResult, Shrinker, load_repro,
                                 replay_repro, repro_dict, write_repro)

__all__ = [
    "FORMAT_VERSION", "FuzzFault", "FuzzJob", "FuzzRunResult",
    "InvariantSuite", "JOB_KINDS", "JobOutcome", "KnobSample", "LAYOUTS",
    "LIVENESS_S", "MaterializedJob", "POLICIES", "RunContext", "SETTLE_S",
    "Scenario", "ScenarioGenerator", "ShrinkResult", "Shrinker", "Violation",
    "corpus_digest", "expected_failed_workers", "generate_scenario",
    "generate_scenarios", "load_repro", "materialize_jobs", "replay_repro",
    "repro_dict", "resolve_faults", "run_scenario", "summarize", "write_repro",
]
