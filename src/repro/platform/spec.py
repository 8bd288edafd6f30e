"""Declarative cluster specification.

:class:`ClusterSpec` replaces hand-built index-list placements: callers
say *what* cluster they want — how many VMs, over which topology, packed
or spread — and :meth:`VHadoopPlatform.provision_cluster
<repro.platform.vhadoop.VHadoopPlatform.provision_cluster>` resolves it
against the datacenter it runs on.

Layouts
-------
``single``
    every VM on one host (the paper's *normal* case);
``packed``
    contiguous fill — host 0 gets the first ``vms_per_host`` VMs, host 1
    the next, ... (the paper's *cross-domain* split, and the natural
    rack-locality layout for multi-rack topologies);
``spread``
    round-robin across hosts (the *balanced* growth pattern of Figs. 6-7).

Named overrides pin individual VMs to explicit hosts on top of any
layout: ``ClusterSpec.packed(16, hosts=2, pin={0: 1})`` puts the master
on host 1 while the rest fill contiguously.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Union

from repro.config import HadoopConfig, TopologySpec, VMConfig
from repro.errors import ConfigError
from repro.platform.provisioning import Placement

_LAYOUTS = ("single", "packed", "spread")


def _is_int(value) -> bool:
    """An ``int`` that is not a ``bool``."""
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class ClusterSpec:
    """What cluster to build, declaratively.

    Resolve against a concrete datacenter with :meth:`placement`; most
    callers go through the named constructors (:meth:`single_host`,
    :meth:`packed`, :meth:`spread`, :meth:`racked`).
    """

    n_vms: int
    layout: str = "packed"
    #: Use only the first ``hosts`` machines (``None`` = all available).
    hosts: Optional[int] = None
    #: Host index for the ``single`` layout.
    host: int = 0
    #: Declarative shape the spec was built from (sets ``vms_per_host``
    #: for the packed layout; informational otherwise).
    topology: Optional[TopologySpec] = None
    #: Placement label recorded in traces (defaults per layout).
    label: Optional[str] = None
    #: Per-cluster VM template / Hadoop config overrides.
    vm: Optional[VMConfig] = None
    hadoop: Optional[HadoopConfig] = None
    #: Named overrides: ``(vm_index, host_index)`` pins applied on top of
    #: the layout.
    pin: tuple[tuple[int, int], ...] = field(default=())

    def __post_init__(self) -> None:
        for name in ("n_vms", "hosts", "host"):
            value = getattr(self, name)
            if not _is_int(value) and not (name == "hosts" and value is None):
                raise ConfigError(f"{name} must be an int, got {value!r}")
        if self.n_vms < 1:
            raise ConfigError("a ClusterSpec needs at least one VM")
        if self.host < 0:
            raise ConfigError(f"host must be >= 0, got {self.host}")
        if self.layout not in _LAYOUTS:
            raise ConfigError(f"unknown layout {self.layout!r}; "
                              f"expected one of {_LAYOUTS}")
        if self.hosts is not None and self.hosts < 1:
            raise ConfigError("hosts must be >= 1")
        if isinstance(self.pin, Mapping):  # accept dicts for convenience
            object.__setattr__(self, "pin",
                               tuple(sorted(self.pin.items())))
        for pair in self.pin:
            if (not isinstance(pair, tuple) or len(pair) != 2
                    or not all(map(_is_int, pair))):
                raise ConfigError(f"a pin is a (vm_index, host_index) pair "
                                  f"of ints, got {pair!r}")
            vm_index, host_index = pair
            if vm_index < 0 or vm_index >= self.n_vms:
                raise ConfigError(f"pin references VM {vm_index} but the "
                                  f"spec has {self.n_vms} VMs")
            if host_index < 0:
                raise ConfigError("pinned host index must be >= 0")

    # -- named constructors ------------------------------------------------
    @classmethod
    def single_host(cls, n_vms: int, host: int = 0, **kw) -> "ClusterSpec":
        """All VMs on one host (the paper's 'normal' layout)."""
        return cls(n_vms=n_vms, layout="single", host=host, **kw)

    @classmethod
    def packed(cls, n_vms: int, hosts: Optional[int] = None,
               **kw) -> "ClusterSpec":
        """Contiguous equal split over ``hosts`` machines (the paper's
        'cross-domain' layout)."""
        return cls(n_vms=n_vms, layout="packed", hosts=hosts, **kw)

    @classmethod
    def spread(cls, n_vms: int, hosts: Optional[int] = None,
               **kw) -> "ClusterSpec":
        """Round-robin over ``hosts`` machines (the 'balanced' layout)."""
        return cls(n_vms=n_vms, layout="spread", hosts=hosts, **kw)

    @classmethod
    def racked(cls, topology: Union[TopologySpec, str],
               n_vms: Optional[int] = None, layout: str = "packed",
               **kw) -> "ClusterSpec":
        """A cluster over a declarative topology (``TopologySpec`` or its
        ``"RxHxV"`` string form); defaults to filling it completely."""
        topo = (TopologySpec.parse(topology) if isinstance(topology, str)
                else topology)
        return cls(n_vms=n_vms if n_vms is not None else topo.n_vms,
                   layout=layout, topology=topo, **kw)

    # -- resolution --------------------------------------------------------
    @property
    def resolved_label(self) -> str:
        if self.label is not None:
            return self.label
        if self.topology is not None:
            return f"{self.topology.spec_str()}-{self.layout}"
        return {"single": "normal", "packed": "cross-domain",
                "spread": "balanced"}[self.layout]

    def placement(self, n_hosts: int) -> Placement:
        """Resolve to a concrete VM→host assignment on an
        ``n_hosts``-machine datacenter."""
        if n_hosts < 1:
            raise ConfigError("need at least one host")
        hosts = self.hosts if self.hosts is not None else n_hosts
        if hosts > n_hosts:
            raise ConfigError(f"spec wants {hosts} hosts but the "
                              f"datacenter has only {n_hosts}")
        used = [h for _vm, h in self.pin]
        if self.layout == "single":
            used.append(self.host)
        for host_index in used:
            if host_index >= hosts:
                raise ConfigError(f"host index {host_index} out of range "
                                  f"(spec resolves to {hosts} hosts)")
        if self.layout == "single":
            assignment = [self.host] * self.n_vms
        elif self.layout == "spread":
            assignment = [i % hosts for i in range(self.n_vms)]
        else:  # packed
            if self.topology is not None:
                per_host = self.topology.vms_per_host
            else:
                per_host = -(-self.n_vms // hosts)  # ceil division
            assignment = [min(i // per_host, hosts - 1)
                          for i in range(self.n_vms)]
        for vm_index, host_index in self.pin:
            assignment[vm_index] = host_index
        return Placement(self.resolved_label, tuple(assignment))
