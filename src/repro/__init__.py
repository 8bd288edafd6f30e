"""vHadoop reproduction.

A functional discrete-event reproduction of *"vHadoop: A Scalable Hadoop
Virtual Cluster Platform for MapReduce-Based Parallel Machine Learning with
Performance Consideration"* (Ye et al., IEEE CLUSTER 2012 Workshops).

Quickstart
----------
>>> from repro import VHadoopPlatform, PlatformConfig, ClusterSpec
>>> platform = VHadoopPlatform(PlatformConfig(n_hosts=2, seed=0))
>>> cluster = platform.provision_cluster("demo", ClusterSpec.single_host(4))
>>> cluster.n_nodes
4

Layers (bottom-up): :mod:`repro.sim` (event kernel + max-min fair sharing),
:mod:`repro.net` / :mod:`repro.virt` (Xen-like testbed with live
migration), :mod:`repro.hdfs` / :mod:`repro.mapreduce` (functional Hadoop),
:mod:`repro.ml` (the six Mahout clustering algorithms),
:mod:`repro.monitor` / :mod:`repro.tuner` (nmon + MapReduce Tuner),
:mod:`repro.platform` (the vHadoop facade), and :mod:`repro.experiments`
(one harness per paper table/figure).
"""

from repro._version import __version__
from repro.config import (HadoopConfig, HostConfig, PlatformConfig,
                          TopologySpec, VMConfig)
from repro.platform import (ClusterSpec, HadoopVirtualCluster,
                            VHadoopPlatform)
from repro.virt import Datacenter, VirtLM

__all__ = [
    "ClusterSpec",
    "Datacenter",
    "HadoopConfig",
    "HadoopVirtualCluster",
    "HostConfig",
    "PlatformConfig",
    "TopologySpec",
    "VHadoopPlatform",
    "VMConfig",
    "VirtLM",
    "__version__",
]
