"""End-to-end span tests: a Wordcount run yields a coherent span tree,
its critical path accounts for the measured makespan, and every emitted
event kind is registered in the taxonomy."""

import json

import pytest

from repro.config import PlatformConfig
from repro.errors import MonitorError
from repro.platform import ClusterSpec, VHadoopPlatform
from repro.telemetry import build_timeline, events as EV
from repro.workloads.wordcount import (lines_as_records, line_record_sizeof,
                                       wordcount_job)

LINES = ["alpha beta gamma delta epsilon"] * 300


@pytest.fixture(scope="module")
def run():
    platform = VHadoopPlatform(PlatformConfig(n_hosts=2, seed=9))
    cluster = platform.provision_cluster("spans", ClusterSpec.single_host(6),
                                         boot=True)
    platform.upload(cluster, "/in", lines_as_records(LINES),
                    sizeof=line_record_sizeof, timed=False)
    job = wordcount_job("/in", "/out", n_reduces=3)
    report = platform.run_job(cluster, job)
    return platform, cluster, job, report


def test_span_tree_links_job_phases_attempts(run):
    platform, cluster, job, _report = run
    timeline = cluster.telemetry.job_timeline(job.name)
    assert timeline.job_span.kind == EV.JOB_RUN
    phases = timeline.children_of(timeline.job_span)
    kinds = sorted(s.kind for s in phases)
    assert kinds == [EV.PHASE_MAP, EV.PHASE_REDUCE]
    map_phase = next(s for s in phases if s.kind == EV.PHASE_MAP)
    attempts = timeline.children_of(map_phase)
    assert attempts and all(a.kind == EV.TASK_MAP for a in attempts)
    reduce_phase = next(s for s in phases if s.kind == EV.PHASE_REDUCE)
    reducers = timeline.children_of(reduce_phase)
    assert len([r for r in reducers if r.kind == EV.TASK_REDUCE]) >= 3
    fetches = [s for s in timeline.spans if s.kind == EV.SHUFFLE_FETCH]
    assert fetches
    reducer_ids = {r.span_id for r in reducers}
    assert all(f.parent_id in reducer_ids for f in fetches)


def test_every_span_is_closed_and_ordered(run):
    platform, _cluster, _job, _report = run
    for span in platform.tracer.spans:
        assert not span.open
        assert span.end >= span.start


def test_span_layer_refines_event_log(run):
    platform, _cluster, job, _report = run
    assert platform.tracer.count(EV.JOB_RUN + ".start") == 1
    assert platform.tracer.count(EV.JOB_RUN + ".end") == 1
    starts = platform.tracer.count(EV.TASK_MAP + ".start")
    ends = platform.tracer.count(EV.TASK_MAP + ".end")
    assert starts == ends > 0


def test_all_emitted_kinds_are_registered(run):
    platform, _cluster, _job, _report = run
    emitted = {event.kind for event in platform.tracer.events}
    unregistered = emitted - EV.REGISTERED_KINDS
    assert not unregistered, f"unregistered event kinds: {unregistered}"


def test_critical_path_reproduces_makespan(run):
    _platform, cluster, job, report = run
    path = cluster.telemetry.job_timeline(job.name).critical_path()
    assert path.makespan == pytest.approx(report.elapsed, rel=0.01)
    assert path.work_s + path.wait_s == pytest.approx(path.makespan)
    assert 0.0 < path.coverage <= 1.0
    # Path segments are contiguous and inside the job window.
    segments = path.segments
    for before, after in zip(segments, segments[1:]):
        assert after.start == pytest.approx(before.end)
    assert path.span_segments(), "critical path found no contributing spans"


def test_chrome_trace_is_valid_json_with_four_categories(run):
    _platform, cluster, _job, _report = run
    text = json.dumps(cluster.telemetry.chrome_trace())
    trace = json.loads(text)
    rows = trace["traceEvents"]
    complete = [r for r in rows if r["ph"] == "X"]
    categories = {r["cat"] for r in complete}
    assert {"job", "task", "shuffle", "vm"} <= categories
    assert len(categories) >= 4
    for row in complete:
        assert row["dur"] >= 0
        assert isinstance(row["ts"], (int, float))
    assert any(r["ph"] == "M" for r in rows), "missing track metadata"


def test_timeline_requires_a_known_job(run):
    _platform, cluster, _job, _report = run
    with pytest.raises(MonitorError):
        cluster.telemetry.job_timeline("no-such-job")


def test_build_timeline_picks_latest_run(run):
    platform, cluster, job, _report = run
    rerun = wordcount_job("/in", "/out2", n_reduces=2)
    rerun.name = job.name
    platform.run_job(cluster, rerun)
    timeline = build_timeline(job.name, platform.tracer.spans)
    assert timeline.job_span.attrs["n_reduces"] == 2
