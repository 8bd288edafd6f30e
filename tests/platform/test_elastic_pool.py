"""ElasticWorkerPool: grow (boot, join, attach), graceful shrink, bounds."""

import pytest

from repro.cloud import SharedClusterBackend
from repro.config import PlatformConfig
from repro.errors import ConfigError
from repro.platform import ClusterSpec, VHadoopPlatform
from repro.platform.provisioning import ElasticWorkerPool
from repro.workloads.wordcount import (lines_as_records, line_record_sizeof,
                                       wordcount_job)

LINES = ["rho sigma tau", "sigma tau", "tau"] * 6


def make_pool(seed=29, max_size=4):
    platform = VHadoopPlatform(PlatformConfig(n_hosts=2, seed=seed))
    cluster = platform.provision_cluster("ep", ClusterSpec.spread(4, hosts=2))
    backend = SharedClusterBackend(platform, cluster)
    pool = ElasticWorkerPool(cluster, backend.scheduler, max_size=max_size)
    return platform, cluster, backend, pool


def test_grow_boots_joins_and_attaches():
    platform, cluster, backend, pool = make_pool()
    base_slots = backend.scheduler.total_slots("map")
    base_vms = len(cluster.vms)
    base_datanodes = len(cluster.datanodes)
    started = pool.grow(2)
    assert started == 2
    assert pool.booting == 2 and pool.size == 2  # boots count as committed
    platform.sim.run_until(platform.sim.timeout(120.0))
    assert pool.booting == 0 and len(pool.workers) == 2
    assert len(cluster.vms) == base_vms + 2
    assert backend.scheduler.total_slots("map") > base_slots
    # Compute-only workers: no DataNode joined HDFS.
    assert len(cluster.datanodes) == base_datanodes


def test_grow_respects_max_size_and_avoid_hosts():
    platform, cluster, backend, pool = make_pool(max_size=3)
    assert pool.grow(10) == 3          # capped
    assert pool.grow(1) == 0           # already at the cap
    platform.sim.run_until(platform.sim.timeout(120.0))
    hosts = {t.vm.host.name for t in pool.workers}
    assert hosts  # placed somewhere real
    # A fresh pool told to avoid one host places everything on the other.
    platform2, cluster2, backend2, pool2 = make_pool(seed=30)
    machines = platform2.datacenter.machines
    pool2.grow(2, avoid_hosts={machines[0].name})
    platform2.sim.run_until(platform2.sim.timeout(120.0))
    assert {t.vm.host.name for t in pool2.workers} == {machines[1].name}


def test_shrink_drains_then_retires_and_returns_dram():
    platform, cluster, backend, pool = make_pool()
    pool.grow(2)
    platform.sim.run_until(platform.sim.timeout(120.0))
    free_before = sum(m.dram_free for m in platform.datacenter.machines)
    base_vms = len(cluster.vms)
    assert pool.shrink() == 1
    assert pool.size == 1              # draining drops out immediately
    platform.sim.run_until(platform.sim.timeout(60.0))
    assert pool.retired == 1 and len(pool.workers) == 1
    assert len(cluster.vms) == base_vms - 1
    free_after = sum(m.dram_free for m in platform.datacenter.machines)
    assert free_after > free_before    # the VM's DRAM came back


def test_shrink_waits_for_running_work():
    from repro.cloud import ServiceRequest

    platform, cluster, backend, pool = make_pool()
    pool.grow(1)
    platform.sim.run_until(platform.sim.timeout(120.0))
    request = ServiceRequest(
        name="inflight", n_nodes=2, records=lines_as_records(LINES),
        make_job=lambda i, o: wordcount_job(i, o, n_reduces=1),
        sizeof=line_record_sizeof)
    event = backend.serve(request)
    # Retire while the job is in flight: the drain must outwait it.
    pool.shrink()
    platform.sim.run_until(event)
    platform.sim.run_until(platform.sim.timeout(60.0))
    assert pool.retired == 1
    outcome = event.value
    assert outcome.output  # the job still completed normally


def test_min_size_floor_and_validation():
    platform, cluster, backend, pool = make_pool(max_size=3)
    base_vms = len(cluster.vms)
    pool.grow(2)
    platform.sim.run_until(platform.sim.timeout(120.0))
    # Only the pool's own workers retire: the floor is the provisioned base.
    assert [pool.shrink() for _ in range(3)] == [1, 1, 0]
    platform.sim.run_until(platform.sim.timeout(120.0))
    assert pool.retired == 2 and len(cluster.vms) == base_vms
    with pytest.raises(ConfigError):
        ElasticWorkerPool(cluster, backend.scheduler, max_size=-1)
