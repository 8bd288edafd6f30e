"""HDFS substrate: a functional simulator of the Hadoop Distributed File
System as configured by the paper (hadoop-0.20 era).

The namespace, block placement, replication and locality logic are real;
payloads are real Python records held once in simulator memory (replicas
are metadata).  Reads and writes charge the disk and network resources of
the VMs involved, so HDFS traffic contends with shuffle traffic and
migration streams — the contention the paper identifies as vHadoop's main
bottleneck.
"""

from repro.hdfs.block import Block, BlockStore
from repro.hdfs.datanode import DataNode
from repro.hdfs.files import DfsFile
from repro.hdfs.namenode import NameNode
from repro.hdfs.client import DfsClient

__all__ = ["Block", "BlockStore", "DataNode", "DfsClient", "DfsFile",
           "NameNode"]
