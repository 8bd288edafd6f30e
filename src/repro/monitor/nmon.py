"""The distributed nmon monitor.

A :class:`NmonMonitor` samples a set of VMs every ``interval`` simulated
seconds into a :class:`~repro.telemetry.timeseries.TimeSeriesStore`: the
six :data:`SERIES`, labelled ``{vm}`` — VCPU utilization, resident memory
fraction, running tasks, and the virtual-disk, net-tx and net-rx bytes
since the previous sample.  The interval *is* the store's ``step``, so the
store is the one bounded sample history that the analyser and the
observatory's window table read.  Sampling runs on a
:class:`~repro.sim.kernel.PeriodicCall`, interleaved with the workload.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import MonitorError
from repro.sim.kernel import PeriodicCall
from repro.telemetry.timeseries import Bucket, TimeSeriesStore
from repro.virt.vm import VirtualMachine

CPU = "vm.cpu.utilization"
MEMORY = "vm.memory.fraction"
TASKS = "vm.tasks.running"
DISK = "vm.disk.bytes"
NET_TX = "vm.net.tx_bytes"
NET_RX = "vm.net.rx_bytes"
#: Every series the monitor writes per VM, in recording order.
SERIES = (CPU, MEMORY, TASKS, DISK, NET_TX, NET_RX)

#: Memory fraction of an idle guest (kernel + daemons + Hadoop services).
_BASE_MEMORY_FRACTION = 0.35
#: Additional memory fraction per running task (JVM heap).
_TASK_MEMORY_FRACTION = 0.18


def vm_buckets(store: TimeSeriesStore, vm: str, name: str,
               tier: int = 0) -> list[Bucket]:
    """Live buckets of one VM's series in one tier, oldest first (empty
    before the VM's first sample)."""
    series = store.get(name, {"vm": vm})
    return series.tiers[tier].buckets() if series is not None else []


def record_sample(store: TimeSeriesStore, vm: str, at: float,
                  values: Sequence[float]) -> None:
    """Record one sample of one VM: ``values`` in :data:`SERIES` order."""
    labels = {"vm": vm}
    for name, value in zip(SERIES, values):
        store.record(name, value, labels, at=at)


class NmonMonitor:
    """Samples a group of VMs into ``store``.  The documented route is the
    telemetry facade (``cluster.telemetry.start_monitor()``), which owns one
    writing into ``telemetry.timeseries``."""

    def __init__(self, vms: Sequence[VirtualMachine], store: TimeSeriesStore):
        if not vms:
            raise MonitorError("monitor needs at least one VM")
        self.vms = list(vms)
        self.store = store
        #: vm name -> [six series handles, (disk, tx, rx) at last sample]
        self._state: dict[str, list] = {}
        self._loop = PeriodicCall(self.vms[0].sim, self._tick)

    @property
    def interval(self) -> float:
        """Seconds between samples: the store's ``step``."""
        return self.store.step

    # -- control -------------------------------------------------------------
    @property
    def running(self) -> bool:
        return self._loop.running

    def start(self) -> None:
        """Begin sampling (idempotent)."""
        self._loop.start()

    def stop(self) -> None:
        """Stop sampling (idempotent): no further samples, nothing armed."""
        self._loop.stop()

    # -- sampling -----------------------------------------------------------
    def _tick(self) -> float:
        self.sample_now(self.vms[0].sim.now)
        return self.store.step

    def sample_now(self, now: float) -> None:
        """Take one sample of every VM (also usable without start())."""
        # Flows opened earlier in this instant have no rate until the
        # engine's end-of-instant flush; sample the settled loads.
        self.vms[0].fss.settle()
        for vm in self.vms:
            state = self._state.get(vm.name)
            if state is None:
                labels = {"vm": vm.name}
                state = self._state[vm.name] = [
                    [self.store.series(name, labels) for name in SERIES],
                    (0.0, 0.0, 0.0)]
            handles, (last_disk, last_tx, last_rx) = state
            node = vm.node
            disk = vm.disk_bytes
            tx = node.tx_bytes if node else 0.0
            rx = node.rx_bytes if node else 0.0
            values = (vm.vcpu.utilization,
                      min(1.0, _BASE_MEMORY_FRACTION
                          + _TASK_MEMORY_FRACTION * vm.activity),
                      vm.activity, disk - last_disk, tx - last_tx,
                      rx - last_rx)
            for series, value in zip(handles, values):
                series.observe(now, value)
            state[1] = (disk, tx, rx)
