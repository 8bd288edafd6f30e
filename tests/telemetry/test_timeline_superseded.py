"""Regression: superseded task attempts must not count as path work.

A chaos-killed (or speculation-losing) attempt leaves a closed span under
the same ``(kind, name)`` as the attempt that redid its work.  The
critical-path walk used to treat both as legitimate predecessors, so one
task's runtime could be double-counted — and ``job_timeline`` makespans
drifted above the reported elapsed time on faulty runs."""

import pytest

from repro.chaos import ChaosInjector, Fault, FaultPlan
from repro.experiments import chaos_faults
from repro.sim.trace import Tracer
from repro.telemetry import build_timeline, events as EV
from repro.telemetry.timeline import _superseded_ids
from tests.mapreduce.test_speculation import run_with
from tests.scheduler.test_preemption import run_contended


def synthetic(mark_loser):
    """A job with two m-0 attempts; the first is marked by mark_loser."""
    tracer = Tracer()
    job = tracer.begin_span(0.0, EV.JOB_RUN, "wc")
    loser = tracer.begin_span(1.0, EV.TASK_MAP, "m-0", parent=job,
                              tracker="vm01")
    tracer.end_span(loser, 11.0, **mark_loser)
    winner = tracer.begin_span(2.0, EV.TASK_MAP, "m-0", parent=job,
                               tracker="vm02")
    tracer.end_span(winner, 12.0)
    tracer.end_span(job, 12.0)
    return tracer, loser, winner


@pytest.mark.parametrize("mark", [{"failed": True}, {"won": False}])
def test_losing_attempts_are_superseded(mark):
    tracer, loser, winner = synthetic(mark)
    assert _superseded_ids(tracer.spans) == {loser.span_id}
    path = build_timeline("wc", tracer.spans).critical_path()
    span_ids = {seg.span.span_id for seg in path.span_segments()}
    assert winner.span_id in span_ids
    assert loser.span_id not in span_ids


def test_attempts_with_no_successful_sibling_are_kept():
    tracer = Tracer()
    job = tracer.begin_span(0.0, EV.JOB_RUN, "wc")
    only = tracer.begin_span(1.0, EV.TASK_MAP, "m-0", parent=job)
    tracer.end_span(only, 5.0, failed=True)
    tracer.end_span(job, 5.0)
    assert _superseded_ids(tracer.spans) == set()


def test_chaos_killed_task_does_not_double_count():
    # Clean probe: learn which tracker runs a map and when.  The chaos
    # run below is seeded identically, so up to the injection instant it
    # replays the clean run — crashing that tracker mid-span is
    # guaranteed to kill an in-flight attempt.
    seed, size_mb = 7, chaos_faults.QUICK_SIZE_MB
    platform, cluster, job = chaos_faults._build(seed, size_mb)
    done = platform.runner(cluster).submit(job)
    platform.sim.run_until(done)
    clean = done.value
    probe = next(s for s in platform.tracer.spans
                 if s.kind == EV.TASK_MAP)
    victim, at = probe.attrs["tracker"], (probe.start + probe.end) / 2

    platform, cluster, job = chaos_faults._build(seed, size_mb)
    runner = platform.runner(cluster)
    plan = FaultPlan(name="kill-one")
    plan.add(Fault(at=at, kind="vm.crash", target=victim,
                   duration=clean.elapsed))
    done = runner.submit(job)
    ChaosInjector(cluster, plan).start()
    platform.sim.run_until(done)
    report = done.value

    spans = list(platform.tracer.spans)
    failed = [s for s in spans if s.kind == EV.TASK_MAP
              and s.attrs.get("failed")]
    assert failed, "the chaos kill produced no failed attempt"
    assert _superseded_ids(spans) >= {s.span_id for s in failed}

    path = cluster.telemetry.job_timeline(job.name).critical_path()
    path_ids = {seg.span.span_id for seg in path.span_segments()}
    assert path_ids.isdisjoint({s.span_id for s in failed})
    # The path still tiles the (fault-lengthened) makespan exactly.
    assert path.makespan == pytest.approx(report.elapsed, rel=0.01)
    assert path.work_s + path.wait_s == pytest.approx(path.makespan)


def _assert_superseded_and_off_path(platform, job_name, losers):
    assert losers
    superseded = _superseded_ids(platform.tracer.spans)
    on_path = {seg.span.span_id for seg in
               platform.telemetry.job_timeline(job_name).critical_path().span_segments()}
    for span in losers:
        assert span.span_id in superseded, span
        assert span.span_id not in on_path, span


def test_scheduler_preempted_map_attempts_are_superseded():
    """A map attempt killed by preemption is redone by a later attempt;
    the killed span must close as a loser on the scheduler path too."""
    platform, _scheduler, report, _batch, _events = run_contended()
    killed = [s for s in platform.tracer.spans
              if s.kind == EV.TASK_MAP and s.attrs.get("preempted")]
    assert len(killed) == report.preemptions
    assert all(s.attrs["won"] is False for s in killed)
    _assert_superseded_and_off_path(platform, "hog", killed)


def test_scheduler_speculation_losers_are_superseded():
    platform, _cluster, report = run_with(True, engine="scheduler")
    assert report.speculated_maps >= 1
    losers = [s for s in platform.tracer.spans
              if s.kind == EV.TASK_MAP and s.attrs.get("won") is False]
    _assert_superseded_and_off_path(platform, "wordcount", losers)
    # Only the scheduler's kills are ``preempted``; a lost race is not.
    assert not any("preempted" in s.attrs for s in platform.tracer.spans)
