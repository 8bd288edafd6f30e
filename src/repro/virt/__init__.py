"""Virtualization substrate (the paper's Xen stand-in).

* :mod:`repro.virt.machine` — physical machines (cores, DRAM, disk, NIC);
* :mod:`repro.virt.vm` — virtual machines with lifecycle states, VCPU
  fair-sharing, and an activity level that couples running work to the
  dirty-page rate;
* :mod:`repro.virt.memory` — writable-working-set dirty-page model;
* :mod:`repro.virt.hypervisor` — per-host placement and boot (NFS image
  fetch);
* :mod:`repro.virt.migration` — Xen-style iterative pre-copy live migration;
* :mod:`repro.virt.virtlm` — the Virt-LM benchmark extended from single-VM
  to whole-virtual-cluster (gang) migration, as in the paper;
* :mod:`repro.virt.image_store` — the shared NFS server holding VM images;
* :mod:`repro.virt.datacenter` — wiring of simulator + fabric + hosts + NFS.
"""

from repro.virt.datacenter import Datacenter
from repro.virt.hypervisor import Hypervisor
from repro.virt.image_store import NfsImageStore
from repro.virt.machine import PhysicalMachine
from repro.virt.memory import DirtyMemoryModel
from repro.virt.migration import LiveMigrator, MigrationRecord
from repro.virt.virtlm import ClusterMigrationReport, VirtLM
from repro.virt.vm import VirtualMachine, VMState

__all__ = [
    "ClusterMigrationReport",
    "Datacenter",
    "DirtyMemoryModel",
    "Hypervisor",
    "LiveMigrator",
    "MigrationRecord",
    "NfsImageStore",
    "PhysicalMachine",
    "VirtLM",
    "VirtualMachine",
    "VMState",
]
