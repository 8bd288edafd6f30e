"""Virtual machines.

A :class:`VirtualMachine` is the unit of computation of the platform.  It
exposes three things to the layers above:

* **compute(work)** — charge ``work`` core-seconds against the VM's VCPU
  allocation; contention with co-resident VCPUs (the Xen credit scheduler)
  is modelled by routing the demand through ``[vm.vcpu, host.cpu]`` with a
  one-core cap per task;
* **disk_io(nbytes)** — charge bytes against the host's shared disk;
* **node** — the VM's network endpoint used by HDFS/MapReduce transfers.

The VM also tracks an *activity level* (number of in-flight tasks), which
drives the dirty-page rate during live migration, and a lifecycle state
machine ``DEFINED → BOOTING → RUNNING ⇄ MIGRATING → STOPPED``.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Optional

from repro import constants as C
from repro.config import VMConfig
from repro.errors import VMStateError
from repro.net import NetNode, NetworkFabric
from repro.sim import (Event, FairShareSystem, FlowOp, SharedResource,
                       Simulator, Tracer)
from repro.telemetry import events as EV
from repro.virt.memory import DirtyMemoryModel

if TYPE_CHECKING:  # pragma: no cover
    from repro.virt.machine import PhysicalMachine


class VMState(enum.Enum):
    DEFINED = "defined"
    BOOTING = "booting"
    RUNNING = "running"
    MIGRATING = "migrating"
    STOPPED = "stopped"
    FAILED = "failed"


class VirtualMachine:
    """One guest (paper default: 1 VCPU, 1024 MB, Ubuntu 8.10)."""

    def __init__(self, name: str, config: VMConfig, sim: Simulator,
                 fss: FairShareSystem, fabric: NetworkFabric,
                 memory_model: Optional[DirtyMemoryModel] = None,
                 tracer: Optional[Tracer] = None):
        self.name = name
        self.config = config
        self.sim = sim
        self.fss = fss
        self.fabric = fabric
        self.tracer = tracer or Tracer(enabled=False)
        self.state = VMState.DEFINED
        self.host: Optional["PhysicalMachine"] = None
        self.vcpu = SharedResource(f"{name}.vcpu", float(config.vcpus))
        self.node: Optional[NetNode] = None
        #: NFS share carrying this VM's virtual-disk I/O (None = local disk).
        self.nfs_backend: Optional[SharedResource] = None
        self.memory_model = memory_model or DirtyMemoryModel(config.memory)
        #: Number of in-flight tasks; drives the dirty-page rate.
        self._activity = 0
        self._activity_integral = 0.0
        self._activity_stamp = 0.0
        #: Cumulative core-seconds of work retired (for the monitor).
        self.cpu_seconds = 0.0
        #: Cumulative bytes of disk I/O (for the monitor).
        self.disk_bytes = 0.0
        #: Disk I/O slowdown factor (chaos slow-disk fault): 1.0 = healthy,
        #: k > 1 divides the effective disk/NFS rate by k.
        self.disk_slowdown = 1.0
        self._failure_event: Optional[Event] = None
        # Flow-path tuples are cached because compute/disk flows are the
        # hottest allocation sites of a run; the guards on the current
        # host/backend keep them valid across migration and recovery.
        self._compute_path: Optional[tuple[SharedResource, ...]] = None
        self._nfs_path: Optional[tuple[SharedResource, ...]] = None

    # -- activity accounting ---------------------------------------------
    @property
    def activity(self) -> int:
        """Number of in-flight tasks (instantaneous)."""
        return self._activity

    @activity.setter
    def activity(self, value: int) -> None:
        now = self.sim.now
        self._activity_integral += self._activity * (now - self._activity_stamp)
        self._activity_stamp = now
        self._activity = value

    def activity_integral(self) -> float:
        """Integral of the activity level up to now (task-seconds).

        Live migration samples this at round boundaries: the pages dirtied
        during a pre-copy round depend on how busy the guest was throughout
        the round, not on the instant the round ended —
        ``mean = (integral(t1) - integral(t0)) / (t1 - t0)``.
        """
        now = self.sim.now
        return (self._activity_integral
                + self._activity * (now - self._activity_stamp))

    # -- lifecycle -----------------------------------------------------------
    def _require(self, *states: VMState) -> None:
        if self.state not in states:
            raise VMStateError(
                f"{self.name}: operation requires state in "
                f"{[s.value for s in states]}, but VM is {self.state.value}")

    def attach_to(self, host: "PhysicalMachine") -> None:
        """Place the VM on a host (does not boot it)."""
        self._require(VMState.DEFINED)
        host.admit(self)
        self.host = host
        self.node = self.fabric.attach(self.name, host.net)

    def mark_running(self) -> None:
        self._require(VMState.DEFINED, VMState.BOOTING, VMState.MIGRATING)
        self.state = VMState.RUNNING

    def stop(self) -> None:
        self._require(VMState.RUNNING, VMState.BOOTING)
        self.state = VMState.STOPPED
        if self.host is not None:
            self.host.evict(self)

    def fail(self) -> None:
        """Crash the VM (fault injection).

        The guest is gone: its DRAM is released and any service it hosted
        (DataNode, TaskTracker) must be declared dead by the layers above —
        see :func:`repro.platform.faults.fail_worker`.
        """
        self._require(VMState.RUNNING, VMState.BOOTING, VMState.MIGRATING)
        self.state = VMState.FAILED
        if self.host is not None:
            self.host.evict(self)
        self.tracer.emit(self.sim.now, EV.VM_FAILED, self.name)
        if self._failure_event is not None and not self._failure_event.triggered:
            self._failure_event.succeed(self)

    def failure_event(self) -> Event:
        """An event that fires when (or is already set if) this VM fails.

        Recovery monitors wait on this instead of polling the state, so a
        bare ``sim.run()`` still drains the heap: a pending event occupies
        no heap slot.  The event is reset by :meth:`recover`.
        """
        if self._failure_event is None:
            self._failure_event = Event(self.sim)
            if self.state is VMState.FAILED:
                self._failure_event.succeed(self)
        return self._failure_event

    def recover(self) -> None:
        """Bring a FAILED VM back to RUNNING (chaos rejoin).

        The guest is re-admitted to its previous host with cold caches —
        dirty-memory state is reset.  Services that ran on the VM must be
        re-registered by the layers above — see
        :func:`repro.platform.faults.rejoin_worker`.
        """
        self._require(VMState.FAILED)
        target = self.host
        assert target is not None and self.node is not None
        target.admit(self)
        self.fabric.move(self.node, target.net)
        self.state = VMState.RUNNING
        self.disk_slowdown = 1.0
        self._failure_event = None
        self.tracer.emit(self.sim.now, EV.VM_RECOVERED, self.name,
                         host=target.name)

    def rehome(self, new_host: "PhysicalMachine") -> None:
        """Move residency to ``new_host`` (called by the migration engine at
        the end of stop-and-copy)."""
        self._require(VMState.MIGRATING)
        assert self.host is not None and self.node is not None
        self.host.evict(self)
        new_host.admit(self)
        self.host = new_host
        self.fabric.move(self.node, new_host.net)

    # -- work ------------------------------------------------------------------
    def compute(self, work: float, name: str = "work") -> Event:
        """Charge ``work`` core-seconds; the event's value is the work done.

        Each call models one task/thread: it can use at most one core, the
        VM's VCPUs cap the VM total, and the host's cores are fair-shared
        among every resident VCPU.  A cancel bills only the work retired.
        """
        self._require(VMState.RUNNING, VMState.MIGRATING)
        assert self.host is not None
        return FlowOp(self.fss, work, f"{self.name}:{name}",
                      self._start_compute, self._bill_compute)

    def _start_compute(self, op: FlowOp) -> None:
        self.activity += 1
        path = self._compute_path
        if path is None or path[1] is not self.host.cpu:
            path = self._compute_path = (self.vcpu, self.host.cpu)
        op.move(path, op.amount, cap=1.0)

    def _bill_compute(self, _op: FlowOp, done: float) -> float:
        self.cpu_seconds += done
        self.activity -= 1
        return done

    def disk_io(self, nbytes: float, name: str = "io") -> Event:
        """Charge ``nbytes`` of virtual-disk I/O; the value is bytes moved.

        The paper's VM images all live on one NFS server, so a guest's disk
        I/O really is network traffic: it crosses the host's physical NIC
        and fair-shares the NFS server with every other VM of the platform.
        When the VM has an ``nfs_backend`` (the normal case — the
        :class:`~repro.virt.datacenter.Datacenter` wires it), the charged
        path is ``[host.nic, nfs]``; otherwise the host's local disk is
        used (standalone tests).  A cancel bills only what moved.
        """
        self._require(VMState.RUNNING, VMState.MIGRATING)
        assert self.host is not None
        return FlowOp(self.fss, nbytes, f"{self.name}:{name}",
                      self._start_disk, self._bill_disk)

    def _start_disk(self, op: FlowOp) -> None:
        # A slow-disk fault (chaos) divides the effective device rate by
        # ``disk_slowdown`` via a per-flow rate cap.
        slow = max(1.0, self.disk_slowdown)
        nbytes = op.amount
        if self.nfs_backend is None or nbytes <= 0:
            cap = None if slow == 1.0 else self.host.disk.nominal / slow
            op.move((self.host.disk,), nbytes, cap)
        else:
            # Guest page cache / write-back absorbs most of the I/O at
            # memory speed; only the miss fraction reaches the NFS server,
            # crossing the host's physical NIC.
            cached = nbytes * C.DISK_CACHE_HIT_RATIO
            op.wait(cached * slow / C.PAGE_CACHE_BPS, self._nfs_miss, op,
                    nbytes - cached, slow)

    def _nfs_miss(self, op: FlowOp, missed: float, slow: float) -> None:
        path = self._nfs_path
        if (path is None or path[0] is not self.host.net.nic
                or path[1] is not self.nfs_backend):
            path = self._nfs_path = (self.host.net.nic, self.nfs_backend)
        # Cap from *nominal* device speed: a concurrent net fault lowers
        # ``capacity`` transiently, and baking that into the flow's
        # lifetime cap would keep it crawling long after the fault heals.
        cap = None if slow == 1.0 else min(r.nominal for r in path) / slow
        op.move(path, missed, cap)

    def _bill_disk(self, _op: FlowOp, done: float) -> float:
        self.disk_bytes += done
        return done

    def __repr__(self) -> str:  # pragma: no cover
        where = self.host.name if self.host else "nowhere"
        return f"<VM {self.name} {self.state.value} on {where}>"
