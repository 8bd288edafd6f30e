"""Per-host hypervisor: placement and boot.

Booting a VM streams its image header/working pages from the NFS image
store through the host's NIC (the paper's images all live on one NFS
server), then pays a fixed guest-boot delay.  Placement enforces the Xen
no-overcommit rule for memory; CPU may be oversubscribed — that is the
whole point of the "normal" 16-VMs-on-one-host configuration.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import PlacementError, VMStateError
from repro.sim import Simulator, Tracer
from repro.sim.kernel import Event
from repro.telemetry import events as EV
from repro.virt.image_store import NfsImageStore
from repro.virt.machine import PhysicalMachine
from repro.virt.vm import VirtualMachine, VMState

#: Guest OS boot time once the image is reachable, seconds.
GUEST_BOOT_S: float = 18.0
#: Fraction of the image streamed from NFS at boot (lazy fetch of the rest).
BOOT_FETCH_FRACTION: float = 0.04


class Hypervisor:
    """Control plane of one physical machine."""

    def __init__(self, host: PhysicalMachine, sim: Simulator,
                 image_store: Optional[NfsImageStore] = None,
                 tracer: Optional[Tracer] = None, metrics=None):
        self.host = host
        self.sim = sim
        self.image_store = image_store
        self.tracer = tracer or Tracer(enabled=False)
        self.metrics = metrics

    def place(self, vm: VirtualMachine) -> None:
        """Admit a defined VM onto this host (memory must fit)."""
        if vm.state is not VMState.DEFINED:
            raise VMStateError(f"{vm.name} must be DEFINED to be placed")
        if vm.config.memory > self.host.dram_free:
            raise PlacementError(
                f"{vm.name} needs {vm.config.memory} B on {self.host.name}, "
                f"free: {self.host.dram_free} B")
        vm.attach_to(self.host)
        self.tracer.emit(self.sim.now, EV.VM_PLACE, vm.name,
                         host=self.host.name)

    def boot(self, vm: VirtualMachine) -> Event:
        """Boot a placed VM from the ``base`` image; returns an event valued
        with boot seconds."""
        if vm.host is not self.host:
            raise VMStateError(f"{vm.name} is not placed on {self.host.name}")
        return self.sim.process(self._boot_proc(vm),
                                name=f"boot:{vm.name}")

    def _boot_proc(self, vm: VirtualMachine):
        started = self.sim.now
        vm.state = VMState.BOOTING
        span = self.tracer.begin_span(started, EV.VM_BOOT, vm.name,
                                      host=self.host.name)
        if self.image_store is not None and "base" in self.image_store.images:
            size = self.image_store.images["base"] * BOOT_FETCH_FRACTION
            yield self.image_store.read_through(
                self.host.dom0, size, name=f"nfs:boot:{vm.name}")
        yield self.sim.timeout(GUEST_BOOT_S)
        vm.mark_running()
        elapsed = self.sim.now - started
        self.tracer.end_span(span, self.sim.now, elapsed=elapsed)
        if self.metrics is not None:
            self.metrics.histogram(
                "vm.boot.duration", "NFS image fetch + guest boot",
                {"host": self.host.name}).observe(elapsed)
        return elapsed
