"""Unit tests for the HDFS substrate: blocks, namenode, client."""

import pytest

from repro import constants as C
from repro.config import HadoopConfig, PlatformConfig
from repro.errors import (BlockNotFound, FileAlreadyExists, FileNotFoundInDfs,
                          HdfsError, ReplicationError)
from repro.hdfs import Block, BlockStore, DataNode, DfsClient, NameNode
from repro.platform import ClusterSpec, VHadoopPlatform


# --- blocks ---------------------------------------------------------------

def test_block_metadata_validation():
    with pytest.raises(ValueError):
        Block("blk_x", -1, 0)
    with pytest.raises(ValueError):
        Block("blk_x", 10, -1)


def test_block_store_roundtrip():
    store = BlockStore()
    block = Block("blk_1", 100, 3)
    store.put(block, ["a", "b", "c"])
    assert store.get(block) == ("a", "b", "c")
    assert block in store
    missing = Block("blk_2", 100, 3)
    assert missing not in store
    with pytest.raises(BlockNotFound):
        store.get(missing)


# --- cluster fixture ----------------------------------------------------------

@pytest.fixture()
def cluster16():
    platform = VHadoopPlatform(PlatformConfig(n_hosts=2, seed=5))
    cluster = platform.provision_cluster("t", ClusterSpec.packed(16, hosts=2))
    return platform, cluster


@pytest.fixture()
def small_cluster():
    platform = VHadoopPlatform(PlatformConfig(n_hosts=2, seed=5))
    cluster = platform.provision_cluster("t", ClusterSpec.single_host(4))
    return platform, cluster


# --- namenode --------------------------------------------------------------

def test_namespace_create_and_get(small_cluster):
    _platform, cluster = small_cluster
    nn = cluster.namenode
    f = nn.create_file("/a")
    assert nn.get_file("/a") is f
    assert nn.exists("/a")
    with pytest.raises(FileAlreadyExists):
        nn.create_file("/a")
    assert not nn.exists("/b")
    with pytest.raises(FileNotFoundInDfs):
        nn.get_file("/b")


def test_list_files_prefix(small_cluster):
    _platform, cluster = small_cluster
    nn = cluster.namenode
    for path in ("/out/part-0", "/out/part-1", "/other"):
        nn.create_file(path)
    assert nn.list_files("/out/") == ["/out/part-0", "/out/part-1"]


def test_write_targets_first_replica_local(cluster16):
    _platform, cluster = cluster16
    nn = cluster.namenode
    writer = cluster.workers[3]
    targets = nn.choose_write_targets(writer.name, 3)
    assert targets[0].vm is writer
    assert len(targets) == 3
    assert len(set(id(t) for t in targets)) == 3


def test_write_targets_second_replica_off_host(cluster16):
    _platform, cluster = cluster16
    nn = cluster.namenode
    writer = cluster.workers[0]
    for _ in range(10):
        targets = nn.choose_write_targets(writer.name, 2)
        assert targets[1].vm.host is not targets[0].vm.host


def test_write_targets_underreplicates_small_cluster():
    platform = VHadoopPlatform(PlatformConfig(n_hosts=2, seed=5))
    cluster = platform.provision_cluster("t", ClusterSpec.single_host(2))
    targets = cluster.namenode.choose_write_targets(
        cluster.workers[0].name, 3)
    assert len(targets) == 1  # only one datanode exists


def test_write_targets_validation(small_cluster):
    _platform, cluster = small_cluster
    with pytest.raises(ReplicationError):
        cluster.namenode.choose_write_targets("x", 0)
    empty = NameNode()
    with pytest.raises(ReplicationError):
        empty.choose_write_targets("x", 1)


def test_read_replica_prefers_node_then_host(cluster16):
    platform, cluster = cluster16
    nn = cluster.namenode
    writer = cluster.workers[0]
    event = cluster.dfs.write_file(writer, "/f", [1, 2, 3],
                                   sizeof=lambda _r: 8)
    platform.sim.run()
    block = nn.get_file("/f").blocks[0]
    # The writer itself holds a replica: node-local wins.
    assert nn.choose_read_replica(writer.name, block).vm is writer
    # A reader co-hosted with a holder gets a same-host replica.
    holders = nn.replicas[block.block_id]
    holder_hosts = {dn.vm.host for dn in holders}
    for vm in cluster.workers:
        if vm.host in holder_hosts:
            chosen = nn.choose_read_replica(vm.name, block)
            assert chosen.vm.host is vm.host


def test_read_replica_missing_block(small_cluster):
    _platform, cluster = small_cluster
    with pytest.raises(ReplicationError):
        cluster.namenode.choose_read_replica(
            cluster.workers[0].name, Block("blk_missing", 1, 1))


# --- client ---------------------------------------------------------------------

def test_write_read_roundtrip(small_cluster):
    platform, cluster = small_cluster
    writer, reader = cluster.workers[0], cluster.workers[1]
    records = [(i, f"value-{i}") for i in range(50)]
    event = cluster.dfs.write_file(writer, "/data", records)
    platform.sim.run()
    assert event.value.size > 0
    read = cluster.dfs.read_file(reader, "/data")
    platform.sim.run()
    assert list(read.value) == records


def test_write_packs_blocks_by_size():
    platform = VHadoopPlatform(PlatformConfig(n_hosts=2, seed=5))
    config = HadoopConfig(dfs_block_size=1 * C.MiB)
    cluster = platform.provision_cluster("t", ClusterSpec.single_host(4),
                                         hadoop_config=config)
    records = list(range(40))
    event = cluster.dfs.write_file(cluster.workers[0], "/packed", records,
                                   sizeof=lambda _r: 100 * C.KiB)
    platform.sim.run()
    f = event.value
    # 40 records x 100 KiB at 1 MiB per block -> 4 blocks of 10 records.
    assert len(f.blocks) == 4
    assert all(b.n_records == 10 for b in f.blocks)
    assert f.n_records == 40


def test_replication_places_copies(small_cluster):
    platform, cluster = small_cluster
    event = cluster.dfs.write_file(cluster.workers[0], "/rep", [1],
                                   sizeof=lambda _r: 1024)
    platform.sim.run()
    block = event.value.blocks[0]
    assert len(cluster.namenode.replicas[block.block_id]) == \
        cluster.config.dfs_replication


def test_write_time_scales_with_bytes(small_cluster):
    platform, cluster = small_cluster
    sim = platform.sim
    t0 = sim.now
    cluster.dfs.write_file(cluster.workers[0], "/small", [1],
                           sizeof=lambda _r: 1 * C.MB)
    sim.run()
    small_time = sim.now - t0
    t0 = sim.now
    cluster.dfs.write_file(cluster.workers[0], "/large", [1],
                           sizeof=lambda _r: 50 * C.MB)
    sim.run()
    large_time = sim.now - t0
    assert large_time > 5 * small_time


def test_node_local_read_cheaper_than_remote(cluster16):
    platform, cluster = cluster16
    sim = platform.sim
    writer = cluster.workers[0]
    event = cluster.dfs.write_file(writer, "/loc", [1],
                                   sizeof=lambda _r: 32 * C.MB,
                                   replication=1)
    sim.run()
    block = event.value.blocks[0]
    t0 = sim.now
    cluster.dfs.read_block(writer, block)
    sim.run()
    local_time = sim.now - t0
    # A worker on the other physical host must cross the netback/NIC.
    remote = next(vm for vm in cluster.workers
                  if vm.host is not writer.host)
    t0 = sim.now
    cluster.dfs.read_block(remote, block)
    sim.run()
    remote_time = sim.now - t0
    assert remote_time > local_time


def test_peek_records_costs_no_time(small_cluster):
    platform, cluster = small_cluster
    cluster.dfs.write_file(cluster.workers[0], "/peek", list(range(10)))
    platform.sim.run()
    before = platform.sim.now
    records = cluster.dfs.peek_records("/peek")
    assert platform.sim.now == before
    assert records == tuple(range(10))


def test_datanode_read_requires_replica(small_cluster):
    _platform, cluster = small_cluster
    dn = cluster.datanodes[0]
    with pytest.raises(HdfsError):
        dn.read_from_disk(Block("blk_nope", 10, 1))
