"""Hosts, endpoints and transfer paths.

Topology model (mirrors the paper's testbed):

* every physical host has one **NIC** (gigabit Ethernet, shared by all its
  guests' external traffic) and one **bridge** (the Xen software bridge that
  carries traffic between co-located guests at near-memory speed);
* every guest/service is a :class:`NetNode` attached to a host with its own
  **vNIC**, so per-VM network I/O can be observed by the monitor;
* hosts connect through a non-blocking switch — the NICs are the only
  inter-host bottleneck, which matches gigabit-Ethernet-era hardware;
* at scale, hosts group into **racks**: each :class:`RackNet` owns a
  top-of-rack switch, and racks meet at a shared aggregation uplink.
  The paper's two-host testbed is the degenerate one-rack case — no ToR
  or aggregation resources exist, so its paths (and every simulated
  timestamp) are bit-identical to the flat topology.

Paths
-----
========================= ==============================================
same node                 no resources (loopback)
same host, two nodes      ``[src.vnic, host.bridge, dst.vnic]``
different hosts (flat)    ``[src.vnic, src.host.nic, dst.host.nic, dst.vnic]``
same rack, two hosts      ``[src.vnic, src.host.nic, rack.tor, dst.host.nic, dst.vnic]``
different racks           ``[src.vnic, src.host.nic, src.tor, agg, dst.tor, dst.host.nic, dst.vnic]``
========================= ==============================================

Unprivileged (guest) endpoints additionally pay their host's ``netback``
resource immediately after/before their vNIC on every path that crosses
a physical NIC.  "Flat" cross-host paths apply whenever either host has
no ToR switch — which is exactly the seed two-host testbed.

The route cache is a bounded LRU (routes are recomputed on demand after
eviction and the whole cache is invalidated on migration), so memory
stays flat even with 1,000+ endpoints where the full pair matrix would
be O(n²).
"""

from __future__ import annotations

from typing import Optional

from repro import constants as C
from repro.errors import SimulationError
from repro.sim import (Event, FairShareSystem, FlowOp, SharedResource,
                       Simulator, Tracer)
from repro.telemetry import events as EV


class RackNet:
    """One rack: a group of hosts behind a top-of-rack switch.

    ``tor`` is ``None`` for the degenerate single-rack topology (the
    paper's testbed), in which case the rack is purely an addressing
    label and adds no resources to any path — keeping the flat topology
    bit-identical.
    """

    def __init__(self, name: str, tor_bandwidth: Optional[float] = None):
        self.name = name
        self.tor: Optional[SharedResource] = (
            SharedResource(f"{name}.tor", tor_bandwidth)
            if tor_bandwidth else None)
        self.hosts: list["HostNet"] = []

    def __repr__(self) -> str:  # pragma: no cover
        return f"<RackNet {self.name} hosts={len(self.hosts)}>"


class HostNet:
    """Network-side view of one physical machine."""

    def __init__(self, name: str, nic_bandwidth: float, bridge_bandwidth: float,
                 netback_bandwidth: float = C.XEN_NETBACK_BPS,
                 rack: Optional[RackNet] = None):
        self.name = name
        self.nic = SharedResource(f"{name}.nic", nic_bandwidth)
        self.bridge = SharedResource(f"{name}.bridge", bridge_bandwidth)
        #: dom0 netback/netfront processing for guest traffic leaving or
        #: entering the host through the physical NIC.
        self.netback = SharedResource(f"{name}.netback", netback_bandwidth)
        #: The rack this host lives in (``None`` on flat topologies).
        self.rack = rack
        if rack is not None:
            rack.hosts.append(self)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<HostNet {self.name}>"


class NetNode:
    """A network endpoint (VM, NameNode service, NFS server...).

    ``privileged`` endpoints (Domain-0, the NFS appliance) talk to the wire
    directly; guest endpoints pay the netback processing path.
    """

    def __init__(self, name: str, host: HostNet, vnic_bandwidth: float,
                 privileged: bool = False):
        self.name = name
        self.host = host
        self.privileged = privileged
        self.vnic = SharedResource(f"{name}.vnic", vnic_bandwidth)
        #: Cumulative bytes sent/received (for the monitor).
        self.tx_bytes = 0.0
        self.rx_bytes = 0.0

    def __repr__(self) -> str:  # pragma: no cover
        return f"<NetNode {self.name}@{self.host.name}>"


class NetworkFabric:
    """Factory for hosts/endpoints and the transfer API over them."""

    def __init__(self, sim: Simulator, fss: FairShareSystem,
                 tracer: Optional[Tracer] = None):
        self.sim = sim
        self.fss = fss
        self.tracer = tracer or Tracer(enabled=False)
        self.hosts: dict[str, HostNet] = {}
        self.racks: dict[str, RackNet] = {}
        self.nodes: dict[str, NetNode] = {}
        #: Shared aggregation uplink between racks (``None`` until a
        #: multi-rack topology calls :meth:`set_aggregation`).
        self.agg: Optional[SharedResource] = None
        #: Route cache: (src, dst) -> (resource tuple, latency), bounded
        #: LRU so memory stays flat when the endpoint pair matrix is
        #: O(n²).  Routes only depend on endpoint placement, so the cache
        #: is dropped when a migration re-homes an endpoint.
        self._path_cache: dict[tuple[NetNode, NetNode],
                               tuple[tuple[SharedResource, ...], float]] = {}
        self.path_cache_capacity = 32768
        self.path_cache_hits = 0
        self.path_cache_misses = 0
        self.path_cache_evictions = 0

    # -- topology construction -------------------------------------------
    def add_rack(self, name: str,
                 tor_bandwidth: Optional[float] = None) -> RackNet:
        """Create a rack; ``tor_bandwidth=None`` makes it a pure label
        (no switch resource — the degenerate single-rack case)."""
        if name in self.racks:
            raise SimulationError(f"duplicate rack {name!r}")
        rack = RackNet(name, tor_bandwidth)
        self.racks[name] = rack
        return rack

    def set_aggregation(self, bandwidth: float) -> SharedResource:
        """Install the shared inter-rack aggregation uplink."""
        if self.agg is None:
            self.agg = SharedResource("net.agg", bandwidth)
        return self.agg

    def add_host(self, name: str,
                 nic_bandwidth: float = C.GBIT_ETHERNET_BPS,
                 bridge_bandwidth: float = C.VIRTUAL_BRIDGE_BPS,
                 netback_bandwidth: float = C.XEN_NETBACK_BPS,
                 rack: Optional[RackNet] = None) -> HostNet:
        if name in self.hosts:
            raise SimulationError(f"duplicate host {name!r}")
        host = HostNet(name, nic_bandwidth, bridge_bandwidth,
                       netback_bandwidth, rack=rack)
        self.hosts[name] = host
        return host

    def attach(self, name: str, host: HostNet,
               vnic_bandwidth: Optional[float] = None,
               privileged: bool = False) -> NetNode:
        """Attach an endpoint to a host; vNIC defaults to the bridge speed."""
        if name in self.nodes:
            raise SimulationError(f"duplicate endpoint {name!r}")
        node = NetNode(name, host, vnic_bandwidth or host.bridge.capacity,
                       privileged=privileged)
        self.nodes[name] = node
        return node

    def move(self, node: NetNode, new_host: HostNet) -> None:
        """Re-home an endpoint after live migration."""
        node.host = new_host
        self._path_cache.clear()

    # -- paths --------------------------------------------------------------
    def path(self, src: NetNode, dst: NetNode
             ) -> tuple[tuple[SharedResource, ...], float]:
        """Resource path and one-way latency between two endpoints."""
        key = (src, dst)
        cached = self._path_cache.get(key)
        if cached is not None:
            self.path_cache_hits += 1
            # LRU touch: dicts preserve insertion order, so re-inserting
            # moves the entry to the "most recently used" end.
            del self._path_cache[key]
            self._path_cache[key] = cached
            return cached
        self.path_cache_misses += 1
        if src is dst:
            route = (), 0.0
        elif src.host is dst.host:
            route = ((src.vnic, src.host.bridge, dst.vnic),
                     C.BRIDGE_LATENCY_S)
        else:
            src_rack, dst_rack = src.host.rack, dst.host.rack
            src_tor = src_rack.tor if src_rack is not None else None
            dst_tor = dst_rack.tor if dst_rack is not None else None
            path = [src.vnic]
            if not src.privileged:
                path.append(src.host.netback)
            path.append(src.host.nic)
            latency = C.LAN_LATENCY_S
            if src_tor is None and dst_tor is None:
                pass  # flat (degenerate one-rack) topology: NIC to NIC
            elif src_rack is dst_rack:
                path.append(src_tor)
            else:
                if src_tor is not None:
                    path.append(src_tor)
                if self.agg is not None:
                    path.append(self.agg)
                if dst_tor is not None:
                    path.append(dst_tor)
                latency = C.LAN_LATENCY_S + C.AGG_LATENCY_S
            path.append(dst.host.nic)
            if not dst.privileged:
                path.append(dst.host.netback)
            path.append(dst.vnic)
            route = tuple(path), latency
        if len(self._path_cache) >= self.path_cache_capacity:
            self._path_cache.pop(next(iter(self._path_cache)))
            self.path_cache_evictions += 1
        self._path_cache[key] = route
        return route

    def path_cache_stats(self) -> dict[str, int]:
        """Hit/miss/eviction telemetry for the bounded route cache."""
        return {"size": len(self._path_cache),
                "capacity": self.path_cache_capacity,
                "hits": self.path_cache_hits,
                "misses": self.path_cache_misses,
                "evictions": self.path_cache_evictions}

    def crosses_physical_nic(self, src: NetNode, dst: NetNode) -> bool:
        """True when traffic between the endpoints leaves a physical host."""
        return src is not dst and src.host is not dst.host

    # -- transfers ------------------------------------------------------------
    def transfer(self, src: NetNode, dst: NetNode, nbytes: float,
                 name: str = "xfer") -> Event:
        """Move ``nbytes`` from ``src`` to ``dst``; returns a completion event.

        The event's value is the elapsed transfer time in seconds.  Loopback
        transfers cost nothing but still count toward the endpoints' byte
        counters.  Cancelling a transfer tears the stream down and counts
        only the bytes that made it across.
        """
        if nbytes < 0:
            raise SimulationError(f"cannot transfer {nbytes} bytes")
        return FlowOp(self.fss, nbytes, name, self._start_transfer,
                      self._bill_transfer, src, dst)

    def _start_transfer(self, op: FlowOp, src: NetNode,
                        dst: NetNode) -> None:
        path, latency = self.path(src, dst)
        self.tracer.emit(op.started, EV.NET_TRANSFER_START, op.name,
                         src=src.name, dst=dst.name, bytes=op.amount,
                         cross_domain=self.crosses_physical_nic(src, dst))
        op.wait(latency, op.move, path, op.amount)

    def _bill_transfer(self, op: FlowOp, moved: float, src: NetNode,
                       dst: NetNode) -> float:
        src.tx_bytes += moved
        dst.rx_bytes += moved
        elapsed = self.sim.now - op.started
        self.tracer.emit(self.sim.now, EV.NET_TRANSFER_END, op.name,
                         src=src.name, dst=dst.name, bytes=moved,
                         elapsed=elapsed)
        return elapsed
