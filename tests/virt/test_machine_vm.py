"""Unit tests for physical machines, VMs, and the hypervisor."""

import pytest

from repro import constants as C
from repro.config import HostConfig, PlatformConfig, VMConfig
from repro.errors import ConfigError, PlacementError, VMStateError
from repro.virt import Datacenter, VMState


@pytest.fixture()
def dc():
    return Datacenter(PlatformConfig(n_hosts=2, seed=42))


def test_datacenter_builds_hosts_and_nfs(dc):
    assert len(dc.machines) == 2
    assert dc.machines[0].name == "pm0"
    assert "base" in dc.image_store.images
    assert dc.machines[0].config.cores == C.DEFAULT_HOST_CORES


def test_vm_placement_reserves_dram(dc):
    host = dc.machine(0)
    free_before = host.dram_free
    vm = dc.create_vm("vm0", host)
    assert host.dram_free == free_before - vm.config.memory
    assert host.vms["vm0"] is vm
    assert vm.state is VMState.DEFINED


def test_placement_rejects_memory_overcommit():
    # 30 GiB guest DRAM holds at most 30 VMs of 1 GiB.
    dc = Datacenter(PlatformConfig(n_hosts=1))
    host = dc.machine(0)
    capacity = host.config.guest_dram // (1024 * C.MiB)
    for i in range(capacity):
        dc.create_vm(f"vm{i}", host)
    with pytest.raises(PlacementError):
        dc.create_vm("one-too-many", host)


def test_cpu_oversubscription_allowed():
    # CPU (unlike memory) may be oversubscribed: 16 single-VCPU VMs fit on
    # an 8-core host.
    dc = Datacenter(PlatformConfig(n_hosts=1, host=HostConfig(cores=8)))
    host = dc.machine(0)
    for i in range(16):
        dc.create_vm(f"vm{i}", host)
    resident = sum(vm.config.vcpus for vm in host.vms.values())
    assert resident == 16 > host.config.cores


def test_duplicate_vm_name_rejected(dc):
    dc.create_vm("vm0", dc.machine(0))
    with pytest.raises(ConfigError):
        dc.create_vm("vm0", dc.machine(1))


def test_boot_streams_image_and_runs(dc):
    vm = dc.create_vm("vm0", dc.machine(0))
    boot = dc.boot_vm(vm)
    dc.run()
    assert vm.state is VMState.RUNNING
    assert boot.value > 18.0  # boot delay plus NFS fetch time
    assert dc.tracer.count("vm.boot.end") == 1


def test_instant_boot(dc):
    vm = dc.create_vm("vm0", dc.machine(0))
    dc.instant_boot(vm)
    assert vm.state is VMState.RUNNING


def test_compute_requires_running(dc):
    vm = dc.create_vm("vm0", dc.machine(0))
    with pytest.raises(VMStateError):
        vm.compute(1.0)


def test_compute_single_task_one_core(dc):
    vm = dc.create_vm("vm0", dc.machine(0))
    dc.instant_boot(vm)
    done = vm.compute(5.0)
    dc.run()
    assert dc.now == pytest.approx(5.0)
    assert done.value == 5.0
    assert vm.cpu_seconds == pytest.approx(5.0)


def test_two_tasks_share_one_vcpu(dc):
    vm = dc.create_vm("vm0", dc.machine(0))
    dc.instant_boot(vm)
    vm.compute(5.0)
    vm.compute(5.0)
    dc.run()
    # 1 VCPU shared by 2 tasks -> 10 s total.
    assert dc.now == pytest.approx(10.0)


def test_sixteen_vms_oversubscribe_eight_cores():
    dc = Datacenter(PlatformConfig(n_hosts=1, host=HostConfig(cores=8)))
    host = dc.machine(0)
    vms = [dc.create_vm(f"vm{i}", host) for i in range(16)]
    for vm in vms:
        dc.instant_boot(vm)
        vm.compute(4.0)
    dc.run()
    # 16 VCPU demands on 8 cores -> each gets half a core -> 8 s.
    assert dc.now == pytest.approx(8.0)


def test_sixteen_vms_on_hyperthreaded_host_not_oversubscribed(dc):
    # The paper's T710 exposes 16 hardware threads: its 'normal' 16-VM
    # cluster is NOT CPU-oversubscribed.
    host = dc.machine(0)
    vms = [dc.create_vm(f"vm{i}", host) for i in range(16)]
    assert sum(vm.config.vcpus for vm in vms) <= host.config.cores
    for vm in vms:
        dc.instant_boot(vm)
        vm.compute(4.0)
    dc.run()
    assert dc.now == pytest.approx(4.0)


def test_activity_tracks_inflight_tasks(dc):
    vm = dc.create_vm("vm0", dc.machine(0))
    dc.instant_boot(vm)
    vm.compute(4.0)
    vm.compute(4.0)
    dc.run(until=1.0)  # let the task processes start
    assert vm.activity == 2
    dc.run()
    assert vm.activity == 0


def test_disk_io_is_nfs_backed(dc):
    # VM images live on the NFS server: the page-cache-miss fraction of any
    # disk I/O drains at NFS speed, the rest at memory speed.
    vm = dc.create_vm("vm0", dc.machine(0))
    dc.instant_boot(vm)
    vm.disk_io(C.NFS_BPS)
    dc.run()
    expected = ((1.0 - C.DISK_CACHE_HIT_RATIO)
                + C.DISK_CACHE_HIT_RATIO * C.NFS_BPS / C.PAGE_CACHE_BPS)
    assert dc.now == pytest.approx(expected, rel=1e-6)
    assert vm.disk_bytes == C.NFS_BPS


def test_disk_contention_between_vms_shares_nfs(dc):
    # Even VMs on *different* hosts share the one NFS server.
    a = dc.create_vm("a", dc.machine(0))
    b = dc.create_vm("b", dc.machine(1))
    dc.instant_boot(a)
    dc.instant_boot(b)
    a.disk_io(C.NFS_BPS)
    b.disk_io(C.NFS_BPS)
    dc.run()
    miss = 1.0 - C.DISK_CACHE_HIT_RATIO
    # The two miss streams contend on the NFS server: 2 * miss seconds.
    assert dc.now > 2 * miss * 0.95
    assert dc.now < 2 * miss + 0.2


def test_disk_io_crosses_host_nic(dc):
    # NFS-backed disk traffic occupies the host's physical NIC.
    vm = dc.create_vm("vm0", dc.machine(0))
    dc.instant_boot(vm)
    vm.disk_io(C.NFS_BPS * 10)
    dc.run(until=1.0)
    assert dc.machine(0).net.nic.current_load > 0


def test_stop_evicts_and_frees_dram(dc):
    host = dc.machine(0)
    vm = dc.create_vm("vm0", host)
    dc.instant_boot(vm)
    free = host.dram_free
    vm.stop()
    assert vm.state is VMState.STOPPED
    assert "vm0" not in host.vms
    assert host.dram_free == free + vm.config.memory


def test_vm_config_validation():
    with pytest.raises(ConfigError):
        VMConfig(vcpus=0)
    with pytest.raises(ConfigError):
        VMConfig(memory=1)


def test_host_config_validation():
    with pytest.raises(ConfigError):
        HostConfig(cores=0)
    with pytest.raises(ConfigError):
        HostConfig(dram=1 * C.GiB, dom0_reserved=2 * C.GiB)


def test_machine_index_out_of_range(dc):
    with pytest.raises(PlacementError):
        dc.machine(5)
