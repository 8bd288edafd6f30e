"""Datacenter: the wired-together testbed.

One object that owns the simulator, the fair-share system, the network
fabric, the RNG registry, the tracer, the NFS image store, the physical
machines with their hypervisors, and the migration engine.  Everything
above (HDFS, MapReduce, the vHadoop platform) builds on a
:class:`Datacenter`.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from repro.config import PlatformConfig, VMConfig
from repro.errors import ConfigError, PlacementError
from repro.sim import FairShareSystem, RngRegistry, Simulator, Tracer
from repro.net import NetworkFabric
from repro.telemetry.facade import Telemetry
from repro.telemetry.metrics import MetricsRegistry
from repro.virt.hypervisor import Hypervisor
from repro.virt.image_store import NfsImageStore
from repro.virt.machine import PhysicalMachine
from repro.virt.memory import DirtyMemoryModel
from repro.virt.migration import LiveMigrator
from repro.virt.virtlm import VirtLM
from repro.virt.vm import VirtualMachine


class Datacenter:
    """The simulated testbed (paper: two Dell T710s + one NFS server)."""

    def __init__(self, config: Optional[PlatformConfig] = None):
        self.config = config or PlatformConfig()
        self.sim = Simulator()
        self.tracer = Tracer(enabled=self.config.trace)
        self.metrics = MetricsRegistry()
        self.rng = RngRegistry(seed=self.config.seed)
        self.fss = FairShareSystem(self.sim)
        self.fabric = NetworkFabric(self.sim, self.fss, tracer=self.tracer)
        self.image_store = NfsImageStore(self.fabric,
                                         bandwidth=self.config.nfs_bandwidth)
        self.image_store.register_image("base", self.config.vm.image_size)
        self.machines: list[PhysicalMachine] = []
        self.hypervisors: dict[str, Hypervisor] = {}
        topo = self.config.topology
        host_cfg = self.config.host
        overrides = {} if topo is None else {
            name: getattr(topo, name)
            for name in ("nic_bandwidth", "bridge_bandwidth")
            if getattr(topo, name) is not None}
        if overrides:
            host_cfg = dataclasses.replace(host_cfg, **overrides)
        racks = []
        if topo is not None:
            # ToR/aggregation resources only exist on multi-rack
            # topologies; one rack stays bit-identical to the flat model.
            for r in range(topo.racks):
                racks.append(self.fabric.add_rack(
                    f"rack{r}",
                    tor_bandwidth=(topo.tor_bandwidth
                                   if topo.multi_rack else None)))
            if topo.multi_rack:
                self.fabric.set_aggregation(topo.agg_bandwidth)
        for i in range(self.config.n_hosts):
            rack = racks[topo.rack_of_host(i)] if racks else None
            machine = PhysicalMachine(f"pm{i}", host_cfg, self.fabric,
                                      rack=rack)
            self.machines.append(machine)
            self.hypervisors[machine.name] = Hypervisor(
                machine, self.sim, image_store=self.image_store,
                tracer=self.tracer, metrics=self.metrics)
        self.migrator = LiveMigrator(self.sim, self.fss, self.fabric,
                                     tracer=self.tracer, metrics=self.metrics)
        self.virtlm = VirtLM(self.migrator)
        self.vms: dict[str, VirtualMachine] = {}
        #: Datacenter-wide observability handle (all VMs, shared registry).
        self.telemetry = Telemetry(self.sim, self.tracer,
                                   metrics=self.metrics, datacenter=self)

    # -- VM management ----------------------------------------------------
    def create_vm(self, name: str, host: PhysicalMachine,
                  config: Optional[VMConfig] = None,
                  jittered_dirty_rate: bool = True) -> VirtualMachine:
        """Define and place (but not boot) a VM on ``host``."""
        if name in self.vms:
            raise ConfigError(f"duplicate VM name {name!r}")
        vm_config = config or self.config.vm
        rng = (self.rng.stream(f"migration/dirty/{name}")
               if jittered_dirty_rate else None)
        vm = VirtualMachine(
            name, vm_config, self.sim, self.fss, self.fabric,
            memory_model=DirtyMemoryModel(vm_config.memory, rng=rng),
            tracer=self.tracer)
        vm.nfs_backend = self.image_store.node.vnic
        self.hypervisors[host.name].place(vm)
        self.vms[name] = vm
        return vm

    def boot_vm(self, vm: VirtualMachine):
        """Boot event for a placed VM."""
        assert vm.host is not None
        return self.hypervisors[vm.host.name].boot(vm)

    def instant_boot(self, vm: VirtualMachine) -> None:
        """Mark a placed VM running without simulating the boot sequence.

        Experiments that measure steady-state behaviour (every figure in the
        paper) start from an already-booted cluster.
        """
        vm.mark_running()

    def machine(self, index: int) -> PhysicalMachine:
        try:
            return self.machines[index]
        except IndexError:
            raise PlacementError(
                f"host index {index} out of range "
                f"(datacenter has {len(self.machines)} hosts)") from None

    def run(self, until: Optional[float] = None) -> None:
        self.sim.run(until=until)

    @property
    def now(self) -> float:
        return self.sim.now
