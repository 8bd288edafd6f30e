"""The shared NFS server holding all VM images.

The paper stores every VM image on a separate NFS server and names "NFS
disk I/O" one of the two main platform bottlenecks.  We model the server as
its own host whose endpoint bandwidth is the NFS export bandwidth — all
image fetches (boot) and image writes (snapshot) fair-share it, and they
also cross the fetching host's physical NIC, contending with Hadoop
traffic.
"""

from __future__ import annotations

from repro import constants as C
from repro.net import NetNode, NetworkFabric
from repro.sim.kernel import Event


class NfsImageStore:
    """NFS server endpoint plus image catalogue."""

    def __init__(self, fabric: NetworkFabric, bandwidth: float = C.NFS_BPS,
                 name: str = "nfs"):
        self.fabric = fabric
        self.name = name
        host = fabric.add_host(f"{name}.host",
                               nic_bandwidth=bandwidth,
                               bridge_bandwidth=bandwidth)
        self.node: NetNode = fabric.attach(name, host, vnic_bandwidth=bandwidth,
                                           privileged=True)
        self.images: dict[str, int] = {}

    def register_image(self, image: str, size: int) -> None:
        self.images[image] = int(size)

    def read_through(self, to: NetNode, nbytes: float, name: str = "nfs:read"
                     ) -> Event:
        """Arbitrary NFS read traffic toward ``to`` (e.g. lazy image pages)."""
        return self.fabric.transfer(self.node, to, nbytes, name=name)
