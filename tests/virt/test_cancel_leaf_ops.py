"""Cancelling a leaf operation bills exactly what moved.

``VirtualMachine.compute``, ``VirtualMachine.disk_io`` and
``NetworkFabric.transfer`` are callback events over one flow.  A cancel
mid-flow closes the flow and bills its transferred amount; a cancel
during the op's delay (page cache, link latency) or before its start
withdraws the pending call and bills nothing.  Either way the event's
value is the billed amount (the elapsed time, for a transfer), the VM's
activity is back to 0 and no flow is left live.
"""

import pytest

from repro import constants as C
from repro.config import PlatformConfig
from repro.virt import Datacenter


@pytest.fixture()
def dc():
    dc = Datacenter(PlatformConfig(n_hosts=2, seed=42, trace=True))
    for i in range(2):
        dc.instant_boot(dc.create_vm(f"vm{i}", dc.machine(i)))
    return dc


def vms(dc):
    return dc.machine(0).vms["vm0"], dc.machine(1).vms["vm1"]


def cancel_at(dc, op, when):
    """Run to ``when`` (None: cancel before the op starts), cancel ``op``
    there; return the flow it had open."""
    if when is not None:
        dc.run(until=when)
    flows = dc.fss.active_flows
    assert len(flows) <= 1
    op.cancel()
    assert op.triggered and not dc.fss.active_flows
    dc.run()
    assert not dc.fss.active_flows
    flow = next(iter(flows), None)
    if flow is not None:
        assert flow.end_time == when
        assert 0 < flow.transferred < flow.size
    return flow


@pytest.mark.parametrize("phase", ["flow", "before-start"])
def test_cancelled_compute_bills_the_work_retired(dc, phase):
    vm, _ = vms(dc)
    op = vm.compute(4.0)
    flow = cancel_at(dc, op, 1.0 if phase == "flow" else None)
    billed = flow.transferred if flow is not None else 0.0
    assert (flow is None) == (phase == "before-start")
    assert op.value == vm.cpu_seconds == billed
    assert vm.activity == 0


@pytest.mark.parametrize("phase", ["flow", "delay"])
def test_cancelled_nfs_disk_io_bills_the_bytes_moved(dc, phase):
    vm, _ = vms(dc)
    nbytes = C.NFS_BPS
    delay = nbytes * C.DISK_CACHE_HIT_RATIO / C.PAGE_CACHE_BPS
    op = vm.disk_io(nbytes)
    flow = cancel_at(dc, op, delay + 0.1 if phase == "flow" else delay / 2)
    billed = flow.transferred if flow is not None else 0.0
    assert (flow is None) == (phase == "delay")
    assert flow is None or flow.path[1] is vm.nfs_backend
    assert op.value == vm.disk_bytes == billed
    assert vm.activity == 0


@pytest.mark.parametrize("phase", ["flow", "before-start"])
def test_cancelled_local_disk_io_bills_the_bytes_moved(dc, phase):
    vm, _ = vms(dc)
    vm.nfs_backend = None
    op = vm.disk_io(vm.host.disk.capacity)
    flow = cancel_at(dc, op, 0.5 if phase == "flow" else None)
    billed = flow.transferred if flow is not None else 0.0
    assert (flow is None) == (phase == "before-start")
    assert flow is None or flow.path == (vm.host.disk,)
    assert op.value == vm.disk_bytes == billed


@pytest.mark.parametrize("phase", ["flow", "delay"])
def test_cancelled_transfer_counts_the_bytes_across(dc, phase):
    a, b = vms(dc)
    _path, latency = dc.fabric.path(a.node, b.node)
    assert latency > 0
    when = latency + 0.1 if phase == "flow" else latency / 2
    op = dc.fabric.transfer(a.node, b.node, 1e9, name="x")
    flow = cancel_at(dc, op, when)
    moved = flow.transferred if flow is not None else 0.0
    assert (flow is None) == (phase == "delay")
    assert a.node.tx_bytes == b.node.rx_bytes == moved
    end = list(dc.tracer.select("net.transfer.end"))[-1]
    assert end["bytes"] == moved
    assert op.value == end["elapsed"] == when


def test_cancel_after_completion_changes_nothing(dc):
    vm, _ = vms(dc)
    op = vm.compute(1.0)
    dc.run()
    op.cancel()
    assert op.value == vm.cpu_seconds == 1.0
    assert vm.activity == 0
