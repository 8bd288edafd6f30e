"""Physical machines.

A :class:`PhysicalMachine` owns the shared hardware resources of one host:

* ``cpu`` — a fair-share resource of ``cores`` core-seconds per second,
  shared by all VCPUs placed on the host (the Xen credit scheduler gives
  each runnable VCPU an equal share, capped at one core per VCPU);
* ``disk`` — local disk bandwidth shared by all guests' virtual disks;
* ``net`` — the :class:`~repro.net.topology.HostNet` (NIC + bridge);
* ``dom0`` — the control-domain network endpoint that carries migration and
  NFS image traffic.

DRAM is accounted (guests cannot over-commit memory in Xen), and the set of
resident VMs is tracked for the hypervisor and monitor.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.config import HostConfig
from repro.errors import PlacementError
from repro.net import HostNet, NetNode, NetworkFabric, RackNet
from repro.sim import SharedResource

if TYPE_CHECKING:  # pragma: no cover
    from repro.virt.vm import VirtualMachine


class PhysicalMachine:
    """One host of the testbed (Dell T710 stand-in)."""

    def __init__(self, name: str, config: HostConfig, fabric: NetworkFabric,
                 rack: Optional[RackNet] = None):
        self.name = name
        self.config = config
        self.cpu = SharedResource(f"{name}.cpu", float(config.cores))
        self.disk = SharedResource(f"{name}.disk", config.disk_bandwidth)
        self.net: HostNet = fabric.add_host(
            name, nic_bandwidth=config.nic_bandwidth,
            bridge_bandwidth=config.bridge_bandwidth,
            netback_bandwidth=config.netback_bandwidth, rack=rack)
        self.dom0: NetNode = fabric.attach(f"{name}.dom0", self.net,
                                           privileged=True)
        self.vms: dict[str, "VirtualMachine"] = {}
        self._dram_used = 0

    @property
    def rack(self) -> Optional[RackNet]:
        """The rack this host lives in (``None`` on flat topologies)."""
        return self.net.rack

    @property
    def rack_name(self) -> Optional[str]:
        return self.net.rack.name if self.net.rack is not None else None

    # -- DRAM accounting ---------------------------------------------------
    @property
    def dram_free(self) -> int:
        return self.config.guest_dram - self._dram_used

    def reserve_dram(self, amount: int, who: str) -> None:
        if amount > self.dram_free:
            raise PlacementError(
                f"{who}: needs {amount} B but {self.name} has only "
                f"{self.dram_free} B of guest DRAM free")
        self._dram_used += amount

    def release_dram(self, amount: int) -> None:
        self._dram_used = max(0, self._dram_used - amount)

    # -- residency -----------------------------------------------------------
    def admit(self, vm: "VirtualMachine") -> None:
        self.reserve_dram(vm.config.memory, vm.name)
        self.vms[vm.name] = vm

    def evict(self, vm: "VirtualMachine") -> None:
        if self.vms.pop(vm.name, None) is not None:
            self.release_dram(vm.config.memory)

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<PhysicalMachine {self.name} vms={len(self.vms)} "
                f"dram_free={self.dram_free // (1 << 20)}MiB>")
