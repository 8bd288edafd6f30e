"""Additional virtualization-layer tests: single-VM migration (the
original Virt-LM benchmark), boot contention on the NFS image store, and
migration-model properties."""

import pytest
from hypothesis import given, settings, HealthCheck
from hypothesis import strategies as st

from repro import constants as C
from repro.config import PlatformConfig, VMConfig
from repro.virt import Datacenter


def make_dc(seed=3):
    return Datacenter(PlatformConfig(n_hosts=2, seed=seed))


def boot_vm(dc, name, host_index=0, memory=1024 * C.MiB):
    vm = dc.create_vm(name, dc.machine(host_index), VMConfig(memory=memory),
                      jittered_dirty_rate=False)
    dc.instant_boot(vm)
    return vm


# --- single-VM migration (original Virt-LM) ----------------------------------

def test_virtlm_single_vm_benchmark():
    dc = make_dc()
    vm = boot_vm(dc, "solo")
    event = dc.migrator.migrate(vm, dc.machine(1))
    dc.run()
    record = event.value
    assert record.vm == "solo"
    assert record.migration_time_s > 0
    assert record.downtime_s > 0
    assert record.overhead_ratio >= 1.0  # at least the full memory was sent


def test_migration_record_rounds_account_for_all_bytes():
    dc = make_dc()
    vm = boot_vm(dc, "acct")
    event = dc.migrator.migrate(vm, dc.machine(1))
    dc.run()
    record = event.value
    sent_in_rounds = sum(r.sent_bytes for r in record.rounds)
    # Total = pre-copy rounds + the final stop-and-copy residue.
    assert record.total_sent_bytes >= sent_in_rounds
    assert record.total_sent_bytes - sent_in_rounds <= \
        record.rounds[-1].dirtied_bytes + 1


# --- boot path -----------------------------------------------------------------

def test_boot_time_includes_nfs_fetch():
    dc = make_dc()
    vm = dc.create_vm("boots", dc.machine(0))
    event = dc.boot_vm(vm)
    dc.run()
    from repro.virt.hypervisor import GUEST_BOOT_S
    assert event.value > GUEST_BOOT_S


def test_parallel_boots_contend_on_nfs():
    # 12 VMs booting at once fetch images from the same NFS server: the
    # last boot completes later than a lone boot would.
    dc_single = make_dc()
    vm = dc_single.create_vm("one", dc_single.machine(0))
    done = dc_single.boot_vm(vm)
    dc_single.run()
    lone = done.value

    dc_many = make_dc()
    events = []
    for i in range(12):
        vm = dc_many.create_vm(f"many{i}", dc_many.machine(0))
        events.append(dc_many.boot_vm(vm))
    dc_many.run()
    slowest = max(e.value for e in events)
    assert slowest > lone * 1.5


def test_boot_requires_placement():
    dc = make_dc()
    from repro.errors import VMStateError
    from repro.virt.vm import VirtualMachine
    vm = VirtualMachine("ghost", VMConfig(), dc.sim, dc.fss, dc.fabric)
    with pytest.raises(VMStateError):
        dc.hypervisors["pm0"].boot(vm)


# --- migration-model properties -----------------------------------------------

@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from([256, 512, 768, 1024, 2048]))
def test_property_idle_migration_time_scales_with_memory(mem_mib):
    dc = make_dc()
    small = boot_vm(dc, "small", memory=128 * C.MiB)
    big = boot_vm(dc, "big", memory=mem_mib * C.MiB)
    ev_small = dc.migrator.migrate(small, dc.machine(1))
    dc.run()
    ev_big = dc.migrator.migrate(big, dc.machine(1))
    dc.run()
    assert ev_big.value.migration_time_s > ev_small.value.migration_time_s
    # Idle downtime stays within a narrow band regardless of memory.
    ratio = ev_big.value.downtime_s / ev_small.value.downtime_s
    assert 0.3 < ratio < 3.0


def test_sequential_migrations_do_not_interfere():
    # Two identical VMs migrated one after the other take identical times
    # (determinism + no residual state).
    dc = make_dc()
    a = boot_vm(dc, "a")
    b = boot_vm(dc, "b")
    ev_a = dc.migrator.migrate(a, dc.machine(1))
    dc.run()
    ev_b = dc.migrator.migrate(b, dc.machine(1))
    dc.run()
    assert ev_a.value.migration_time_s == pytest.approx(
        ev_b.value.migration_time_s, rel=1e-9)


def test_concurrent_migrations_share_the_wire():
    dc = make_dc()
    vms = [boot_vm(dc, f"c{i}") for i in range(4)]
    started = dc.now
    events = [dc.migrator.migrate(vm, dc.machine(1)) for vm in vms]
    dc.run()
    # Four concurrent streams over one NIC pair: each takes ~4x the solo
    # time, but the wall clock beats 4 sequential migrations.
    solo_floor = 1024 * C.MiB / C.GBIT_ETHERNET_BPS
    assert min(e.value.migration_time_s for e in events) > 2.0 * solo_floor
    assert dc.now - started < 4.0 * (solo_floor * 4)
