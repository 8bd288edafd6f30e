"""Unit tests for the dirty-memory model and pre-copy live migration."""

import pytest

from repro import constants as C
from repro.config import PlatformConfig, TopologySpec, VMConfig
from repro.datasets.text import generate_corpus
from repro.errors import ConfigError, MigrationError
from repro.mapreduce.runner import JobReport, TaskAttempt
from repro.platform import ClusterSpec, VHadoopPlatform
from repro.virt import Datacenter, DirtyMemoryModel, VMState
from repro.workloads.wordcount import (lines_as_records, scaled_line_sizeof,
                                       wordcount_job)


@pytest.fixture()
def dc():
    return Datacenter(PlatformConfig(n_hosts=2, seed=7))


def running_vm(dc, name="vm0", host_index=0, memory=1024 * C.MiB,
               jitter=False):
    vm = dc.create_vm(name, dc.machine(host_index),
                      VMConfig(memory=memory), jittered_dirty_rate=jitter)
    dc.instant_boot(vm)
    return vm


# --- DirtyMemoryModel ---------------------------------------------------------

def test_dirty_model_idle_rate():
    m = DirtyMemoryModel(1024 * C.MiB, idle_rate=2.0, busy_rate_per_task=10.0)
    assert m.dirty_rate(0) == 2.0
    assert m.dirty_rate(3) == 32.0


def test_dirty_model_wws_ceiling():
    m = DirtyMemoryModel(1000, idle_rate=100.0, wws_fraction=0.1)
    # 100 B/s for 100 s = 10_000 B raw, capped at WWS = 100 B.
    assert m.dirtied_during(100.0, 0) == 100.0


def test_dirty_model_validation():
    with pytest.raises(ConfigError):
        DirtyMemoryModel(0)
    with pytest.raises(ConfigError):
        DirtyMemoryModel(1000, wws_fraction=0.0)
    with pytest.raises(ConfigError):
        DirtyMemoryModel(1000, idle_rate=-1.0)
    m = DirtyMemoryModel(1000)
    with pytest.raises(ConfigError):
        m.dirty_rate(-1)
    with pytest.raises(ConfigError):
        m.dirtied_during(-1.0, 0)


# --- single-VM migration --------------------------------------------------------

def test_idle_migration_completes_and_rehomes(dc):
    vm = running_vm(dc)
    ev = dc.migrator.migrate(vm, dc.machine(1))
    dc.run()
    record = ev.value
    assert vm.host is dc.machine(1)
    assert vm.state is VMState.RUNNING
    assert "vm0" in dc.machine(1).vms
    assert "vm0" not in dc.machine(0).vms
    assert record.stop_reason == "converged"
    assert record.total_sent_bytes >= vm.config.memory


def test_idle_migration_time_tracks_memory_over_bandwidth(dc):
    vm = running_vm(dc)
    ev = dc.migrator.migrate(vm, dc.machine(1))
    dc.run()
    record = ev.value
    floor = vm.config.memory / C.GBIT_ETHERNET_BPS
    assert record.migration_time_s > floor
    assert record.migration_time_s < 3.0 * floor + 5.0


def test_larger_memory_longer_migration(dc):
    small = running_vm(dc, "small", memory=512 * C.MiB)
    big = running_vm(dc, "big", memory=1024 * C.MiB)
    ev_small = dc.migrator.migrate(small, dc.machine(1))
    dc.run()
    t_small = ev_small.value.migration_time_s
    ev_big = dc.migrator.migrate(big, dc.machine(1))
    dc.run()
    t_big = ev_big.value.migration_time_s
    assert t_big > 1.5 * t_small


def test_idle_downtime_small_and_memory_independent(dc):
    small = running_vm(dc, "small", memory=512 * C.MiB)
    big = running_vm(dc, "big", memory=1024 * C.MiB)
    ev_s = dc.migrator.migrate(small, dc.machine(1))
    dc.run()
    ev_b = dc.migrator.migrate(big, dc.machine(1))
    dc.run()
    # Paper observation (i): downtime has no causal relation to memory size.
    assert ev_s.value.downtime_s < 0.2
    assert ev_b.value.downtime_s < 0.2
    ratio = ev_b.value.downtime_s / ev_s.value.downtime_s
    assert 0.2 < ratio < 5.0


def test_busy_vm_much_longer_downtime(dc):
    idle = running_vm(dc, "idle")
    busy = running_vm(dc, "busy")
    # Emulate a running Wordcount: two long tasks keep activity at 2.
    busy.compute(10_000.0)
    busy.compute(10_000.0)
    ev_idle = dc.migrator.migrate(idle, dc.machine(1))
    dc.run(until=200.0)
    assert ev_idle.triggered
    ev_busy = dc.migrator.migrate(busy, dc.machine(1))
    dc.run(until=2000.0)
    assert ev_busy.triggered
    idle_rec, busy_rec = ev_idle.value, ev_busy.value
    assert busy_rec.downtime_s > 5.0 * idle_rec.downtime_s
    assert busy_rec.migration_time_s > idle_rec.migration_time_s
    assert busy_rec.stop_reason in ("send-budget", "round-budget")


def test_migration_rejects_same_host(dc):
    vm = running_vm(dc)
    with pytest.raises(MigrationError):
        dc.migrator.migrate(vm, dc.machine(0))


def test_migration_rejects_stopped_vm(dc):
    vm = running_vm(dc)
    vm.stop()
    with pytest.raises(MigrationError):
        dc.migrator.migrate(vm, dc.machine(1))


def test_migration_rejects_full_destination():
    dc = Datacenter(PlatformConfig(n_hosts=2))
    dst = dc.machine(1)
    capacity = dst.config.guest_dram // (1024 * C.MiB)
    for i in range(capacity):
        dc.create_vm(f"filler{i}", dst)
    vm = running_vm(dc, "mover")
    with pytest.raises(MigrationError):
        dc.migrator.migrate(vm, dst)


def test_migration_precopy_rounds_geometric(dc):
    vm = running_vm(dc)
    ev = dc.migrator.migrate(vm, dc.machine(1))
    dc.run()
    rounds = ev.value.rounds
    assert rounds[0].sent_bytes == vm.config.memory
    # Idle VM converges: rounds shrink monotonically.
    sent = [r.sent_bytes for r in rounds]
    assert sent == sorted(sent, reverse=True)
    assert ev.value.n_rounds < 10


def test_migration_emits_trace(dc):
    vm = running_vm(dc)
    dc.migrator.migrate(vm, dc.machine(1))
    dc.run()
    assert dc.tracer.count("migration.start") == 1
    assert dc.tracer.count("migration.round") >= 1
    assert list(dc.tracer.select("migration.end"))[-1]["downtime"] > 0


# --- Virt-LM cluster migration --------------------------------------------------

def make_cluster(dc, n=4, memory=512 * C.MiB, jitter=True):
    vms = [running_vm(dc, f"node{i}", host_index=0, memory=memory,
                      jitter=jitter) for i in range(n)]
    return vms


def test_virtlm_sequential_cluster_migration(dc):
    vms = make_cluster(dc, n=4)
    ev = dc.virtlm.migrate_cluster(vms, dc.machine(1), label="idle")
    dc.run()
    report = ev.value
    assert len(report.records) == 4
    assert all(vm.host is dc.machine(1) for vm in vms)
    # Sequential: overall time is at least the sum of individual times.
    assert report.overall_migration_time_s == pytest.approx(
        sum(report.migration_times), rel=0.01)
    assert report.overall_downtime_s == pytest.approx(
        sum(report.downtimes))


def test_virtlm_empty_cluster_rejected(dc):
    with pytest.raises(MigrationError):
        dc.virtlm.migrate_cluster([], dc.machine(1))


def test_busy_cluster_downtime_varies_more_than_idle(dc):
    idle = make_cluster(dc, n=4, jitter=True)
    ev = dc.virtlm.migrate_cluster(idle, dc.machine(1), label="idle")
    dc.run()
    idle_report = ev.value

    busy = [running_vm(dc, f"busy{i}", host_index=0, jitter=True)
            for i in range(4)]
    for i, vm in enumerate(busy):
        for _ in range(1 + i % 3):  # imbalanced load across nodes
            vm.compute(50_000.0)
    ev = dc.virtlm.migrate_cluster(busy, dc.machine(1), label="busy")
    dc.run(until=dc.now + 5000.0)
    assert ev.triggered
    busy_report = ev.value
    assert busy_report.downtime_spread() > idle_report.downtime_spread()
    assert busy_report.overall_downtime_s > 3.0 * idle_report.overall_downtime_s


# --- cross-rack migration under a running job ---------------------------------

def test_cross_rack_migration_mid_job_report_is_pinned():
    """Wordcount on a racked ``2x2x2`` cluster with a worker VM migrated to
    the other rack mid-job.  The fair-share engine once kept a rack tag on
    every resource and re-tagged vCPU and vNIC here; no resource carries
    one now, and the job's report is the one that engine produced."""
    topo = TopologySpec.parse("2x2x2")
    platform = VHadoopPlatform(PlatformConfig(topology=topo, seed=5))
    cluster = platform.provision_cluster("mig", ClusterSpec.racked(topo))
    dc = platform.datacenter
    scale = 400
    lines = generate_corpus(256 * C.MB // scale, rng=dc.rng.fresh("corpus"))
    platform.upload(cluster, "/in", lines_as_records(lines),
                    sizeof=scaled_line_sizeof(scale), timed=False)
    finished_flows = []
    dc.fss.flow_log = finished_flows
    done = platform.runner(cluster).submit(
        wordcount_job("/in", "/out", n_reduces=4, volume_scale=scale))
    platform.sim.run(until=5.0)
    assert not done.triggered
    vm = cluster.vms[-1]
    assert (vm.name, vm.host.name, vm.host.rack_name) == (
        "mig-vm07", "pm3", "rack1")
    moved = dc.migrator.migrate(vm, dc.machine(0))
    platform.sim.run_until(done)
    assert moved.triggered and vm.host.rack_name == "rack0"

    fabric = dc.fabric
    resources = {res for flow in finished_flows for res in flow.path}
    resources.add(fabric.agg)
    resources.update(rack.tor for rack in fabric.racks.values())
    for machine in dc.machines:
        resources.update((machine.cpu, machine.disk, machine.net.nic,
                          machine.net.bridge, machine.net.netback,
                          machine.dom0.vnic))
    for guest in cluster.vms:
        resources.update((guest.vcpu, guest.node.vnic))
    assert len(resources) >= 30
    assert not [res.name for res in resources if hasattr(res, "rack")]

    report = done.value
    assert report.counters.as_dict() == {"job": {
        "map_input_records": 7965, "map_output_records": 95580,
        "reduce_input_records": 95580, "reduce_output_records": 6341}}
    assert report == JobReport(
        job_name="wordcount", submitted_at=0.0,
        finished_at=32.69342521630148, map_phase_end=16.605267580736246,
        n_maps=4, n_reduces=4, input_bytes=256001600.0,
        shuffle_bytes=447161600.0, output_bytes=76520.0,
        output_paths=[f"/out/part-r-0000{i}" for i in range(4)],
        counters=report.counters, first_task_at=4.101835286159715,
        slot_seconds=85.62111930268411,
        tasks=[
            TaskAttempt("m-00002", "map", "mig-vm04", 5.501835286159714,
                        12.292668411040246, 67089600.0, 117225600.0, "node"),
            TaskAttempt("m-00001", "map", "mig-vm01", 5.644989151549689,
                        12.73607362386152, 67081600.0, 117193600.0, "node"),
            TaskAttempt("m-00003", "map", "mig-vm06", 5.738657878491612,
                        15.874335064913199, 54738400.0, 95514400.0, "rack"),
            TaskAttempt("m-00000", "map", "mig-vm06", 5.6453913559983615,
                        16.605267580736246, 67092000.0, 117228000.0, "node"),
            TaskAttempt("r-00000", "reduce", "mig-vm04", 18.016132696844863,
                        25.466348649631794, 78272000.0, 18600.0, "-"),
            TaskAttempt("r-00001", "reduce", "mig-vm02", 18.115997483479774,
                        27.350567716400597, 99545600.0, 19278.0, "-"),
            TaskAttempt("r-00002", "reduce", "mig-vm07", 18.16537663134072,
                        27.97715599836221, 108657600.0, 19268.0, "-"),
            TaskAttempt("r-00003", "reduce", "mig-vm06", 18.246342474698448,
                        31.193425216301478, 160686400.0, 19374.0, "-"),
        ])
