"""Tests for the Grep and Pi example jobs and the analyser graphics."""

import math
import re

import pytest

from repro.config import PlatformConfig
from repro.errors import MonitorError
from repro.monitor import NmonMonitor
from repro.monitor.nmon import MEMORY
from repro.monitor.graphics import (render_cluster_heatmap,
                                    render_node_timeline, sparkline)
from repro.platform import ClusterSpec, VHadoopPlatform
from repro.telemetry.timeseries import TimeSeriesStore
from repro.workloads.examples_jobs import (estimate_pi, grep_jobs, pi_input,
                                           pi_job, run_grep)
from repro.workloads.wordcount import lines_as_records, line_record_sizeof

LINES = ["error: disk full", "warning: retry", "error: timeout",
         "info: ok", "error: disk full again"] * 4


def make(n=6, seed=3):
    platform = VHadoopPlatform(PlatformConfig(n_hosts=2, seed=seed))
    cluster = platform.provision_cluster("x", ClusterSpec.single_host(n))
    return platform, cluster


# --- grep ------------------------------------------------------------------

def test_grep_counts_and_sorts_matches():
    platform, cluster = make()
    platform.upload(cluster, "/logs", lines_as_records(LINES),
                    sizeof=line_record_sizeof, timed=False)
    output = run_grep(platform.runners[cluster.name], cluster,
                      "/logs", "/grep-out", r"error: (\w+)")
    # findall with one group returns the group.
    expected = {"disk": 8, "timeout": 4}
    as_counts = {match: -negcount for negcount, match in output}
    assert as_counts == expected
    # Sorted by descending frequency.
    neg_counts = [negcount for negcount, _m in output]
    assert neg_counts == sorted(neg_counts)


def test_grep_no_matches_gives_empty_output():
    platform, cluster = make()
    platform.upload(cluster, "/logs", lines_as_records(["nothing here"]),
                    sizeof=line_record_sizeof, timed=False)
    output = run_grep(platform.runners[cluster.name], cluster,
                      "/logs", "/none", r"absent-(\d+)")
    assert output == []


# --- pi --------------------------------------------------------------------------

def test_pi_estimator_converges():
    platform, cluster = make()
    records = pi_input(n_maps=8, points_per_map=20_000)
    platform.upload(cluster, "/pi-in", records, timed=False)
    job = pi_job("/pi-in", "/pi-out", n_maps=8)
    report = platform.run_job(cluster, job)
    output = platform.collect(cluster, report)
    estimate = estimate_pi(output)
    assert abs(estimate - math.pi) < 0.05
    assert report.n_maps == 8


def test_pi_deterministic_across_runs():
    def run():
        platform, cluster = make(seed=4)
        platform.upload(cluster, "/pi-in", pi_input(4, 5000), timed=False)
        report = platform.run_job(cluster, pi_job("/pi-in", "/pi-out", 4))
        return estimate_pi(platform.collect(cluster, report))

    assert run() == run()


# --- analyser graphics ------------------------------------------------------------

def test_sparkline_scales():
    line = sparkline([0.0, 0.5, 1.0])
    assert len(line) == 3
    assert line[0] == " " and line[-1] == "█"
    assert sparkline([0.0, 0.0]) == "  "
    with pytest.raises(MonitorError):
        sparkline([])


def test_node_timeline_and_heatmap_render():
    platform, cluster = make()
    platform.upload(cluster, "/logs", lines_as_records(LINES * 50),
                    sizeof=lambda r: (len(r[1]) + 1) * 100, timed=False)
    monitor = cluster.telemetry.start_monitor(interval=1.0)
    from repro.workloads.wordcount import wordcount_job
    platform.run_job(cluster, wordcount_job("/logs", "/wc", n_reduces=2,
                                            volume_scale=100))
    monitor.stop()
    store = monitor.store
    timeline = render_node_timeline(store, cluster.workers[0].name)
    assert "cpu" in timeline and "net" in timeline and "|" in timeline
    heatmap = render_cluster_heatmap(store, metric="vm.cpu.utilization")
    assert heatmap.count("\n") == len(cluster.vms)
    assert "cluster heatmap" in heatmap


def test_heatmap_requires_samples():
    platform, cluster = make()
    monitor = NmonMonitor(cluster.vms, TimeSeriesStore(cluster.sim))
    with pytest.raises(MonitorError):
        render_cluster_heatmap(monitor.store)


def test_heatmap_aligns_a_late_vm_by_sample_time():
    platform, cluster = make(n=3)
    late = platform.provision_cluster("late", ClusterSpec.single_host(2))
    telemetry = cluster.telemetry
    telemetry.start_monitor(interval=1.0)
    platform.sim.run(until=5.5)                 # samples at t=0..5
    telemetry.add_vm(late.workers[0])
    platform.sim.run(until=7.5)                 # t=6, 7 include the new VM
    telemetry.stop_monitor()
    heatmap = render_cluster_heatmap(telemetry.timeseries, metric=MEMORY)
    rows = {line.split("|")[0].strip(): line.split("|")[1]
            for line in heatmap.splitlines()[1:]}
    assert set(rows) == {vm.name for vm in cluster.vms} | {
        late.workers[0].name}
    # Eight sample times, eight columns; the late VM is blank until t=6.
    assert all(len(cells) == 8 for cells in rows.values())
    assert rows[late.workers[0].name] == " " * 6 + "@@"
    assert rows[cluster.vms[0].name] == "@" * 8
