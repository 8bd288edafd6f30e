"""The vHadoop platform: provisioning, clusters, and the Fig. 1 facade."""

from repro.platform.cluster import HadoopVirtualCluster
from repro.platform.provisioning import Placement
from repro.platform.spec import ClusterSpec
from repro.platform.vhadoop import VHadoopPlatform

__all__ = [
    "ClusterSpec",
    "HadoopVirtualCluster",
    "Placement",
    "VHadoopPlatform",
]
