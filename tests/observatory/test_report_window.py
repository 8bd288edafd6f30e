"""The report's "Rolling nmon window" table, built from the raw tier of
the time-series store the nmon monitor records into."""

import pytest

from repro.config import PlatformConfig
from repro.monitor.nmon import record_sample
from repro.observatory.report import window_summaries
from repro.platform import ClusterSpec, VHadoopPlatform
from repro.telemetry.timeseries import TimeSeriesStore


def sample(t, vm="vm1", cpu=0.5, disk=0.0, tx=0.0, rx=0.0, activity=1):
    return dict(t=t, vm=vm, cpu=cpu, disk=disk, tx=tx, rx=rx,
                activity=activity)


def feed(step, **series):
    """A store holding each VM's samples as the monitor records them,
    plus the VM names (a VM with no samples has no series)."""
    store = TimeSeriesStore(step=step)
    for samples in series.values():
        for s in samples:
            record(store, s)
    return store, list(series)


def record(store, s):
    record_sample(store, s["vm"], s["t"], (s["cpu"], 0.5, s["activity"],
                                           s["disk"], s["tx"], s["rx"]))


def test_only_the_tail_inside_the_window_is_aggregated():
    pushed = [sample(float(t), cpu=(t * 7 % 10) / 10.0, disk=100.0 * t,
                     tx=3.0 * t, rx=2.0 * t, activity=t % 4)
              for t in range(15)]
    store, vms = feed(1.0, vm1=pushed)
    (summary,) = window_summaries(store, vms, now=14.0, window_s=7.0)
    kept = [s for s in pushed if s["t"] >= 7.0]
    assert summary.n_samples == len(kept) == 8
    assert summary.span_s == 7.0         # clamped to the window
    assert summary.cpu_mean == pytest.approx(
        sum(s["cpu"] for s in kept) / len(kept))
    assert summary.disk_bytes == sum(s["disk"] for s in kept)
    assert summary.net_bytes == sum(s["tx"] + s["rx"] for s in kept)
    assert summary.activity_mean == pytest.approx(
        sum(s["activity"] for s in kept) / len(kept))


def test_rates_divide_by_the_covered_span():
    store, vms = feed(2.0, vm1=[sample(4.0, disk=100.0, tx=30.0, rx=20.0)])
    (summary,) = window_summaries(store, vms, now=4.0, window_s=10.0)
    # A single sample covers (at least) one sampling interval.
    assert summary.span_s == 2.0
    assert summary.disk_rate == pytest.approx(50.0)
    assert summary.net_rate == pytest.approx(25.0)
    record(store, sample(8.0, disk=100.0))
    (summary,) = window_summaries(store, vms, now=8.0, window_s=10.0)
    assert summary.span_s == 4.0
    assert summary.disk_bytes == 200.0
    assert summary.disk_rate == pytest.approx(50.0)


def test_vm_without_recent_samples_gets_an_all_zero_row():
    store, vms = feed(1.0, quiet=[sample(1.0, vm="quiet", disk=9.0)],
                      fresh=[], busy=[sample(50.0, vm="busy")])
    rows = window_summaries(store, vms, now=50.0, window_s=10.0)
    assert [r.vm for r in rows] == ["busy", "fresh", "quiet"]
    assert [r.n_samples for r in rows] == [1, 0, 0]
    for empty in rows[1:]:
        assert empty.span_s == 0.0 and empty.cpu_mean == 0.0
        assert empty.disk_rate == 0.0 and empty.net_rate == 0.0


def test_report_renders_the_window_from_the_monitor_history():
    platform = VHadoopPlatform(PlatformConfig(n_hosts=1, seed=0))
    cluster = platform.provision_cluster("win", ClusterSpec.single_host(2))
    obs = cluster.observatory(interval=1.0, window=3.0).start()
    platform.sim.run(until=20.5)
    obs.stop()
    report = obs.report()
    assert [w.vm for w in report.window] == sorted(
        vm.name for vm in cluster.vms)
    # nmon samples every 5 s: only t=20 is within 3 s of t=20.5.
    assert all(w.n_samples == 1 and w.span_s == 3.0 for w in report.window)
    assert "Rolling nmon window" in report.html()
    assert report.digest == obs.digest()
