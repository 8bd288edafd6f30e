"""Tests for cluster specs, provisioning and the VHadoopPlatform facade."""

import pytest

from repro.config import HadoopConfig, PlatformConfig, TopologySpec, VMConfig
from repro.errors import ConfigError, PlacementError
from repro.platform import ClusterSpec, VHadoopPlatform
from repro.platform.provisioning import validate_placement
from repro.virt import VMState
from repro.workloads.wordcount import lines_as_records, wordcount_job


# --- ClusterSpec resolution -------------------------------------------------

def test_single_host_spec():
    p = ClusterSpec.single_host(16).placement(2)
    assert p.n_vms == 16
    assert p.hosts_used() == {0}
    assert p.label == "normal"


def test_packed_spec_splits_equally():
    p = ClusterSpec.packed(16, hosts=2).placement(2)
    assert p.assignment.count(0) == 8
    assert p.assignment.count(1) == 8
    # Contiguous split: first half on host 0.
    assert p.assignment[:8] == (0,) * 8
    assert p.label == "cross-domain"


def test_packed_odd_counts():
    p = ClusterSpec.packed(5, hosts=2).placement(2)
    assert p.hosts_used() == {0, 1}
    assert p.n_vms == 5


def test_packed_defaults_to_all_hosts():
    p = ClusterSpec.packed(8).placement(4)
    assert p.hosts_used() == {0, 1, 2, 3}


def test_spread_spec_round_robin():
    p = ClusterSpec.spread(6, hosts=2).placement(2)
    assert p.assignment == (0, 1, 0, 1, 0, 1)
    assert p.label == "balanced"


def test_racked_spec_fills_topology():
    spec = ClusterSpec.racked("2x2x4")
    assert spec.n_vms == 16
    assert spec.topology == TopologySpec(racks=2, hosts_per_rack=2,
                                         vms_per_host=4)
    p = spec.placement(4)
    assert p.assignment == tuple(i // 4 for i in range(16))
    assert p.label == "2x2x4-packed"


def test_spec_pins_override_layout():
    p = ClusterSpec.packed(4, hosts=2, pin={0: 1}).placement(2)
    assert p.assignment == (1, 0, 1, 1)


def test_spec_validation():
    with pytest.raises(ConfigError):
        ClusterSpec.single_host(0)
    with pytest.raises(ConfigError):
        ClusterSpec(4, layout="bogus")
    with pytest.raises(ConfigError):
        ClusterSpec.packed(4, hosts=0)
    with pytest.raises(ConfigError):
        ClusterSpec.packed(4, pin={9: 0})
    with pytest.raises(ConfigError):
        # Spec wants more hosts than the datacenter has.
        ClusterSpec.packed(8, hosts=4).placement(2)


def test_validate_placement_against_machines():
    platform = VHadoopPlatform(PlatformConfig(n_hosts=2))
    bad = ClusterSpec.single_host(4, host=7).placement(8)
    with pytest.raises(PlacementError):
        validate_placement(bad, platform.datacenter.machines)


# --- provisioning -----------------------------------------------------------

def test_provision_places_and_runs_vms():
    platform = VHadoopPlatform(PlatformConfig(n_hosts=2, seed=1))
    cluster = platform.provision_cluster("c", ClusterSpec.packed(6, hosts=2))
    assert cluster.n_nodes == 6
    assert len(cluster.workers) == 5
    assert all(vm.state is VMState.RUNNING for vm in cluster.vms)
    assert cluster.cross_domain
    assert cluster.hosts_used() == {"pm0", "pm1"}


def test_provision_with_boot_charges_time():
    platform = VHadoopPlatform(PlatformConfig(n_hosts=2, seed=1))
    platform.provision_cluster("c", ClusterSpec.single_host(4), boot=True)
    assert platform.sim.now > 18.0  # guest boot floor


def test_provision_rejects_duplicates_and_tiny_clusters():
    platform = VHadoopPlatform(PlatformConfig(n_hosts=2, seed=1))
    platform.provision_cluster("c", ClusterSpec.single_host(2))
    with pytest.raises(ConfigError):
        platform.provision_cluster("c", ClusterSpec.single_host(2))
    with pytest.raises(ConfigError):
        platform.provision_cluster("tiny", ClusterSpec.single_host(1))


def test_custom_vm_and_hadoop_config():
    platform = VHadoopPlatform(PlatformConfig(n_hosts=2, seed=1))
    cluster = platform.provision_cluster(
        "c", ClusterSpec.single_host(3),
        vm_config=VMConfig(memory=512 * 1024 * 1024),
        hadoop_config=HadoopConfig(map_tasks_maximum=3))
    assert cluster.master.config.memory == 512 * 1024 * 1024
    assert cluster.trackers[0].map_slots.capacity == 3


def test_spec_embedded_vm_and_hadoop_config():
    platform = VHadoopPlatform(PlatformConfig(n_hosts=2, seed=1))
    spec = ClusterSpec.single_host(
        3, vm=VMConfig(memory=512 * 1024 * 1024),
        hadoop=HadoopConfig(map_tasks_maximum=3))
    cluster = platform.provision_cluster("c", spec)
    assert cluster.master.config.memory == 512 * 1024 * 1024
    assert cluster.trackers[0].map_slots.capacity == 3


def test_upload_timed_vs_untimed():
    platform = VHadoopPlatform(PlatformConfig(n_hosts=2, seed=1))
    cluster = platform.provision_cluster("c", ClusterSpec.single_host(4))
    records = lines_as_records(["hello world"] * 100)
    platform.upload(cluster, "/untimed", records, timed=False)
    t0 = platform.sim.now
    assert t0 == 0.0
    platform.upload(cluster, "/timed", records,
                    sizeof=lambda _r: 1_000_000)
    assert platform.sim.now > t0
    assert cluster.dfs.peek_records("/untimed") == tuple(records)
    assert cluster.dfs.peek_records("/timed") == tuple(records)


def test_full_flow_provision_upload_run_collect():
    platform = VHadoopPlatform(PlatformConfig(n_hosts=2, seed=1))
    cluster = platform.provision_cluster("c", ClusterSpec.single_host(4))
    platform.upload(cluster, "/in", lines_as_records(["x y x"]), timed=False)
    report = platform.run_job(cluster, wordcount_job("/in", "/out"))
    assert dict(platform.collect(cluster, report)) == {"x": 2, "y": 1}
    assert platform.tracer.count("job.done") == 1


def test_reconfigure_rebuilds_slots():
    platform = VHadoopPlatform(PlatformConfig(n_hosts=2, seed=1))
    cluster = platform.provision_cluster("c", ClusterSpec.single_host(4))
    cluster.reconfigure(cluster.config.replace(map_tasks_maximum=4))
    assert all(t.map_slots.capacity == 4 for t in cluster.trackers)
    assert platform.tracer.count("cluster.reconfigure") == 1


def test_cluster_requires_worker():
    platform = VHadoopPlatform(PlatformConfig(n_hosts=2, seed=1))
    from repro.platform.cluster import HadoopVirtualCluster
    vm = platform.datacenter.create_vm("solo", platform.datacenter.machine(0))
    with pytest.raises(ConfigError):
        HadoopVirtualCluster("bad", platform.datacenter, vm, [])
