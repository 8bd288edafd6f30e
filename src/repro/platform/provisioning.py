"""Resolved placements and elastic capacity for hadoop virtual clusters.

:class:`Placement` is the *resolved* VM→host assignment consumed by the
datacenter.  Callers should not build placements by hand any more: the
declarative :class:`~repro.platform.spec.ClusterSpec` resolves to one:

* **normal** — all 16 VMs on one physical machine (intra-host bridge
  carries all Hadoop traffic) → ``ClusterSpec.single_host``;
* **cross-domain** — VMs distributed equally across the two physical
  machines → ``ClusterSpec.packed``;
* **balanced** — round-robin generalization → ``ClusterSpec.spread``.

:class:`ElasticWorkerPool` is the *dynamic* counterpart: the actuator the
service autoscaler drives to grow a running cluster with compute-only
workers (boot, join, attach to the scheduler) and to shrink it again
(drain, wait for quiescence, retire) — without disturbing jobs in flight.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Collection, Optional, Sequence

from repro.config import VMConfig
from repro.errors import ConfigError, PlacementError
from repro.virt.machine import PhysicalMachine


@dataclass(frozen=True)
class Placement:
    """VM index -> physical machine assignment for an n-VM cluster."""

    label: str
    assignment: tuple[int, ...]  # host index per VM index

    @property
    def n_vms(self) -> int:
        return len(self.assignment)

    def host_of(self, vm_index: int) -> int:
        return self.assignment[vm_index]

    def hosts_used(self) -> set[int]:
        return set(self.assignment)


def validate_placement(placement: Placement,
                       machines: Sequence[PhysicalMachine]) -> None:
    """Check every referenced host exists."""
    for host_index in placement.hosts_used():
        if host_index < 0 or host_index >= len(machines):
            raise PlacementError(
                f"placement {placement.label!r} references host "
                f"{host_index} but only {len(machines)} exist")


class ElasticWorkerPool:
    """Grow/shrink a running cluster with compute-only elastic workers.

    The autoscaler's actuator.  :meth:`grow` defines and places a VM on
    the freest eligible host (DRAM reserved synchronously, so concurrent
    grows cannot double-book), boots it through the timed NFS image
    fetch, joins it to the cluster as a TaskTracker-only worker (no
    DataNode — see :meth:`HadoopVirtualCluster.add_worker
    <repro.platform.cluster.HadoopVirtualCluster.add_worker>`) and
    attaches it to the scheduler's slot-worker pool.  :meth:`shrink`
    retires the youngest pool workers *gracefully*: mark draining (no new
    tasks), wait until the tracker is quiescent — nothing running and no
    live shuffle inputs on it — then stop the VM and return its DRAM.

    ``size`` counts committed capacity: booted workers not yet draining
    plus boots in flight.  It never goes below ``min_size`` or above
    ``max_size``; the floor makes a clean (never-scaled-out) run
    structurally unable to shrink below its provisioned base.
    """

    def __init__(self, cluster, scheduler,
                 vm_config: Optional[VMConfig] = None,
                 min_size: int = 0, max_size: int = 64,
                 quiescence_poll_s: float = 5.0):
        if min_size < 0 or max_size < min_size:
            raise ConfigError("need 0 <= min_size <= max_size")
        self.cluster = cluster
        self.scheduler = scheduler
        self.datacenter = cluster.datacenter
        self.sim = cluster.sim
        self.vm_config = vm_config
        self.min_size = min_size
        self.max_size = max_size
        self.quiescence_poll_s = quiescence_poll_s
        self._seq = itertools.count()
        #: Trackers this pool booted and attached, oldest first.
        self.workers: list = []
        self.booting = 0
        self.retired = 0

    # -- ScalingTarget -----------------------------------------------------
    @property
    def size(self) -> int:
        """Committed elastic capacity (attached + booting − draining)."""
        attached = sum(1 for t in self.workers if not t.draining)
        return attached + self.booting

    def grow(self, n: int = 1,
             avoid_hosts: Collection[str] = ()) -> int:
        """Start up to ``n`` new workers; returns how many were started.

        Hosts named in ``avoid_hosts`` (e.g. the targets of active
        hot-host alerts) are skipped while any other host has room.
        Stops early when the cap or the datacenter's DRAM is reached.
        """
        memory = (self.vm_config or self.datacenter.config.vm).memory
        started = 0
        for _ in range(n):
            if self.size >= self.max_size:
                break
            machines = self.datacenter.machines
            candidates = [m for m in machines
                          if m.name not in avoid_hosts
                          and m.dram_free >= memory]
            if not candidates:  # fall back: an avoided host beats no host
                candidates = [m for m in machines if m.dram_free >= memory]
            if not candidates:
                break  # datacenter is full
            host = max(candidates, key=lambda m: m.dram_free)
            vm = self.datacenter.create_vm(
                f"{self.cluster.name}-es{next(self._seq):03d}", host,
                config=self.vm_config)
            self.booting += 1
            self.sim.process(self._bring_up(vm),
                             name=f"elastic:boot:{vm.name}")
            started += 1
        return started

    def _bring_up(self, vm):
        yield self.datacenter.boot_vm(vm)
        self.booting -= 1
        tracker = self.cluster.add_worker(vm)
        self.workers.append(tracker)
        self.scheduler.attach_tracker(tracker)

    def shrink(self, n: int = 1) -> int:
        """Gracefully retire up to ``n`` workers (youngest first);
        returns how many drains were initiated."""
        stopped = 0
        for tracker in reversed(self.workers):
            if stopped >= n or self.size <= self.min_size:
                break
            if tracker.draining:
                continue
            tracker.draining = True
            self.sim.process(self._drain_and_retire(tracker),
                             name=f"elastic:drain:{tracker.name}")
            stopped += 1
        if stopped:
            # Parked slot workers re-check draining on wake-up.
            self.scheduler._signal("map")
            self.scheduler._signal("reduce")
        return stopped

    def _drain_and_retire(self, tracker):
        while not self.scheduler.tracker_quiescent(tracker):
            yield self.sim.timeout(self.quiescence_poll_s)
        self.workers = [t for t in self.workers if t is not tracker]
        self.cluster.retire_worker(tracker)
        self.retired += 1
