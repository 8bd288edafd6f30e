"""Unit tests for the nmon monitor and analyser."""

import pytest

from repro.config import PlatformConfig
from repro.errors import ConfigError, MonitorError
from repro.monitor import NmonAnalyser, NmonMonitor
from repro.monitor.nmon import SERIES, vm_buckets
from repro.platform import ClusterSpec, VHadoopPlatform
from repro.telemetry.timeseries import TimeSeriesStore
from repro.workloads.wordcount import wordcount_job, lines_as_records


def make_busy_cluster(seed=12):
    platform = VHadoopPlatform(PlatformConfig(n_hosts=2, seed=seed))
    cluster = platform.provision_cluster("m", ClusterSpec.single_host(6))
    lines = ["alpha beta gamma delta " * 20] * 2000
    platform.upload(cluster, "/in", lines_as_records(lines),
                    sizeof=lambda r: (len(r[1]) + 1) * 30, timed=False)
    return platform, cluster


def monitor_on(cluster, step=5.0):
    """A stand-alone monitor writing into its own store at ``step``."""
    return NmonMonitor(cluster.vms, TimeSeriesStore(cluster.sim, step=step))


def run_monitored(platform, cluster, step=1.0, **job):
    monitor = monitor_on(cluster, step)
    monitor.start()
    platform.run_job(cluster, wordcount_job("/in", "/out", **job))
    monitor.stop()
    return monitor


def test_monitor_validation():
    platform, cluster = make_busy_cluster()
    with pytest.raises(MonitorError):
        NmonMonitor([], TimeSeriesStore())
    with pytest.raises(ConfigError):
        cluster.telemetry.start_monitor(interval=0)


def test_monitor_samples_on_interval():
    platform, cluster = make_busy_cluster()
    monitor = run_monitored(platform, cluster, step=2.0, n_reduces=2,
                            volume_scale=30)
    assert monitor.interval == 2.0
    buckets = vm_buckets(monitor.store, cluster.workers[0].name, SERIES[0])
    assert len(buckets) >= 5
    assert all(b.count == 1 for b in buckets)   # one sample per raw bucket
    times = [b.last_at for b in buckets]
    assert times == sorted(times)
    # sampling interval respected
    deltas = [b - a for a, b in zip(times, times[1:])]
    assert all(d == pytest.approx(2.0) for d in deltas)


def test_monitor_observes_activity_and_io():
    platform, cluster = make_busy_cluster()
    monitor = run_monitored(platform, cluster, n_reduces=2, volume_scale=30)
    peak = {name: max(b.max for vm in cluster.vms
                      for b in vm_buckets(monitor.store, vm.name, name))
            for name in SERIES}
    assert all(value > 0 for value in peak.values())  # cpu, mem, tasks, I/O
    assert peak["vm.memory.fraction"] <= 1
    assert min(b.min for vm in cluster.vms
               for b in vm_buckets(monitor.store, vm.name,
                                   "vm.memory.fraction")) >= 0


def test_monitor_unknown_node():
    platform, cluster = make_busy_cluster()
    monitor = monitor_on(cluster)
    with pytest.raises(MonitorError, match="no samples"):
        NmonAnalyser(monitor).summarize("ghost")


def test_analyser_summaries_and_bottleneck():
    platform, cluster = make_busy_cluster()
    monitor = run_monitored(platform, cluster, n_reduces=2, volume_scale=30)
    analyser = NmonAnalyser(monitor)
    summary = analyser.summarize(cluster.workers[0].name)
    assert summary.n_samples > 0
    assert 0 <= summary.cpu_mean <= summary.cpu_peak <= 1

    dc = platform.datacenter
    shared = [dc.machines[0].cpu, dc.machines[0].net.nic,
              dc.machines[0].net.netback, dc.image_store.node.vnic]
    report = analyser.bottleneck(shared, now=platform.sim.now)
    assert report.busiest_resource in {r.name for r in shared}
    assert len(report.top(2)) == 2


def close(value):
    return pytest.approx(value, rel=1e-12, abs=0.0)


def test_analyser_whole_run_equals_raw_tier_recompute():
    # The run is shorter than raw-tier retention, so the raw tier holds
    # every sample; the analyser's whole-run aggregates (read from the
    # coarsest tier) must agree with a recompute from the raw buckets.
    platform, cluster = make_busy_cluster()
    monitor = run_monitored(platform, cluster, n_reduces=2, volume_scale=30)
    store = monitor.store
    assert platform.sim.now < store.step * store.capacity
    analyser = NmonAnalyser(monitor)
    for vm in cluster.vms:
        raw = {name: vm_buckets(store, vm.name, name) for name in SERIES}
        n = sum(b.count for b in raw["vm.cpu.utilization"])

        def total(name):
            return sum(b.total for b in raw[name])

        summary = analyser.summarize(vm.name)
        assert summary.n_samples == n
        assert summary.cpu_mean == close(total("vm.cpu.utilization") / n)
        assert summary.cpu_peak == max(b.max
                                       for b in raw["vm.cpu.utilization"])
        assert summary.memory_mean == close(total("vm.memory.fraction") / n)
        assert summary.disk_bytes_total == close(total("vm.disk.bytes"))
        assert summary.net_bytes_total == close(
            total("vm.net.tx_bytes") + total("vm.net.rx_bytes"))


def test_analyser_finds_nfs_or_network_bottleneck():
    # The paper's conclusion: network I/O and NFS disk I/O are the main
    # bottlenecks of an I/O-heavy wordcount on the platform.
    platform, cluster = make_busy_cluster()
    monitor = run_monitored(platform, cluster, n_reduces=4, volume_scale=80)
    analyser = NmonAnalyser(monitor)
    dc = platform.datacenter
    shared = []
    for machine in dc.machines:
        shared.extend([machine.cpu, machine.net.nic, machine.net.netback,
                       machine.net.bridge])
    shared.append(dc.image_store.node.vnic)
    report = analyser.bottleneck(shared, now=platform.sim.now)
    assert ("nfs" in report.busiest_resource
            or ".nic" in report.busiest_resource
            or ".netback" in report.busiest_resource)


def test_analyser_no_samples_raises():
    platform, cluster = make_busy_cluster()
    analyser = NmonAnalyser(monitor_on(cluster))
    with pytest.raises(MonitorError):
        analyser.summarize(cluster.workers[0].name)


def test_imbalance_zero_when_idle():
    platform, cluster = make_busy_cluster()
    monitor = monitor_on(cluster, step=1.0)
    for _ in range(3):
        monitor.sample_now(platform.sim.now)
    analyser = NmonAnalyser(monitor)
    assert analyser.imbalance() == 0.0
