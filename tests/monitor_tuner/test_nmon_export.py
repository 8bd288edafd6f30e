"""Round-trip and malformed-input tests for nmon-format export/parsing."""

import pytest

from repro.config import PlatformConfig
from repro.errors import MonitorError
from repro.monitor import NmonAnalyser, NmonMonitor
from repro.monitor.export import parse_nmon, write_nmon
from repro.monitor.nmon import SERIES, record_sample, vm_buckets
from repro.platform import ClusterSpec, VHadoopPlatform
from repro.telemetry.timeseries import TimeSeriesStore


def values(i):
    """One sample's six values (SERIES order), exact through the format."""
    return (i / 10, 0.5, i % 2, 4096.0 * i, 100.0 * i, 200.0 * i)


def store_of(n=3, vm="vm-x", step=2.5):
    store = TimeSeriesStore(step=step)
    for i in range(n):
        record_sample(store, vm, step * i, values(i))
    return store


def raw(store, vm="vm-x"):
    """Per-bucket (time, six values) rows of one VM's raw tier."""
    columns = [vm_buckets(store, vm, name) for name in SERIES]
    return [(row[0].last_at, tuple(b.last for b in row))
            for row in zip(*columns)]


def test_roundtrip_preserves_every_field():
    original = store_of(5)
    parsed = TimeSeriesStore(step=2.5)
    assert parse_nmon(write_nmon(original, "vm-x"), parsed) == "vm-x"
    assert len(raw(parsed)) == 5
    for (t_a, a), (t_b, b) in zip(raw(original), raw(parsed)):
        assert t_b == pytest.approx(t_a, abs=1e-3)
        assert b == pytest.approx(a, abs=1e-4)


def test_declared_sample_count_roundtrips():
    text = write_nmon(store_of(4), "vm-x")
    assert "AAA,samples,4" in text
    parsed = TimeSeriesStore(step=2.5)
    parse_nmon(text, parsed)
    assert len(raw(parsed)) == 4


def test_blank_lines_and_indentation_are_tolerated():
    text = write_nmon(store_of(3), "vm-x")
    padded = "\n\n" + text.replace("\n", "\n\n") + "   \n"
    parsed = TimeSeriesStore(step=2.5)
    parse_nmon(padded, parsed)
    assert len(raw(parsed)) == 3


def test_missing_proc_section_defaults_activity_to_zero():
    # Real nmon captures don't always include the process section.
    text = "".join(line + "\n" for line in
                   write_nmon(store_of(3), "vm-x").splitlines()
                   if not line.startswith("PROC,"))
    parsed = TimeSeriesStore(step=2.5)
    parse_nmon(text, parsed)
    assert [row[1][2] for row in raw(parsed)] == [0, 0, 0]


def test_missing_host_header_raises():
    text = write_nmon(store_of(2), "vm-x").replace("AAA,host,vm-x\n", "")
    with pytest.raises(MonitorError, match="AAA,host"):
        parse_nmon(text, TimeSeriesStore())


def test_missing_required_section_names_the_snapshot():
    text = write_nmon(store_of(2), "vm-x").replace("MEM,T0002,50.00\n", "")
    store = TimeSeriesStore()
    with pytest.raises(MonitorError, match="T0002"):
        parse_nmon(text, store)
    assert len(store) == 0          # nothing recorded from a bad file


def test_sample_count_mismatch_raises():
    text = write_nmon(store_of(3), "vm-x").replace("AAA,samples,3",
                                                   "AAA,samples,7")
    with pytest.raises(MonitorError, match="declares 7"):
        parse_nmon(text, TimeSeriesStore())


def test_malformed_sample_count_raises():
    text = write_nmon(store_of(2), "vm-x").replace("AAA,samples,2",
                                                   "AAA,samples,two")
    with pytest.raises(MonitorError, match="malformed"):
        parse_nmon(text, TimeSeriesStore())


@pytest.mark.parametrize("text", [
    "AAA\n",                                   # truncated header
    "AAA,host,x\nZZZZ\n",                      # snapshot marker without tag
    "AAA,host,x\nZZZZ,T0001,0.0\nCPU_ALL,T0001,abc\n",   # non-numeric
    "AAA,host,x\nZZZZ,T0001,0.0\nNET,T0001,5\n",         # NET missing rx
])
def test_truncated_or_non_numeric_input_raises_monitor_error(text):
    store = TimeSeriesStore()
    with pytest.raises(MonitorError, match="malformed nmon line"):
        parse_nmon(text, store)
    assert len(store) == 0


def test_snapshot_order_survives_five_digit_tags():
    # Tags sort as strings, so T10000 < T9999; snapshots must reach the
    # store in file order or every coarse bucket's last sample is wrong.
    lines = ["AAA,host,vm-x"]
    for i, tag in enumerate(range(9998, 10002)):
        cpu, mem, tasks, disk, tx, rx = values(i)
        lines += [f"ZZZZ,T{tag},{i:.3f}", f"CPU_ALL,T{tag},{cpu * 100:.2f}",
                  f"MEM,T{tag},{mem * 100:.2f}", f"DISKREAD,T{tag},{disk:.0f}",
                  f"NET,T{tag},{tx:.0f},{rx:.0f}", f"PROC,T{tag},{tasks}"]
    parsed = TimeSeriesStore(step=1.0)
    parse_nmon("\n".join(lines) + "\n", parsed)
    assert parsed.digest() == store_of(4, step=1.0).digest()


def restarted_monitor(restart_at):
    """A step-5 monitor sampling at t=0, 5, 10, stopped at t=12 and
    restarted at ``restart_at`` for two more samples."""
    platform = VHadoopPlatform(PlatformConfig(n_hosts=1, seed=3))
    cluster = platform.provision_cluster("r", ClusterSpec.single_host(2))
    monitor = NmonMonitor(cluster.vms, TimeSeriesStore(cluster.sim, step=5.0))
    sim = platform.sim
    monitor.start()
    sim.run(until=12.0)
    monitor.stop()
    sim.run(until=restart_at)
    monitor.start()
    sim.run(until=restart_at + 6.0)
    monitor.stop()
    return cluster, monitor


def test_restart_inside_a_step_refuses_export():
    # The t=13 sample shares the [10, 15) bucket with the t=10 one: one
    # snapshot could not stand for both, so the export refuses.
    cluster, monitor = restarted_monitor(13.0)
    vm = cluster.vms[0].name
    assert [b.count for b in vm_buckets(monitor.store, vm, SERIES[0])] \
        == [1, 1, 2, 1]
    with pytest.raises(MonitorError, match=r"2 samples in the interval "
                                           r"\[10, 15\)"):
        write_nmon(monitor.store, vm)


def test_restart_in_a_later_step_roundtrips_n_samples():
    cluster, monitor = restarted_monitor(16.0)
    parsed = TimeSeriesStore(step=5.0)
    for vm in cluster.vms:
        assert parse_nmon(write_nmon(monitor.store, vm.name), parsed) \
            == vm.name
    original = NmonAnalyser(monitor)
    reparsed = NmonAnalyser(NmonMonitor(cluster.vms, parsed))
    for vm in cluster.vms:
        assert reparsed.summarize(vm.name).n_samples \
            == original.summarize(vm.name).n_samples == 5
