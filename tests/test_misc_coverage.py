"""Coverage of remaining small surfaces: report objects, file helpers,
model dataclasses, placement accessors."""

import pytest

from repro.config import PlatformConfig
from repro.hdfs import Block, DfsFile
from repro.mapreduce.runner import JobReport, TaskAttempt
from repro.ml.base import ClusterModel, ClusteringResult
from repro.platform import ClusterSpec, VHadoopPlatform
from repro.virt.virtlm import ClusterMigrationReport
from repro.virt.migration import MigrationRecord


def test_dfsfile_aggregates():
    f = DfsFile("/x", blocks=[Block("b1", 100, 3), Block("b2", 50, 2)])
    assert f.size == 150
    assert f.n_records == 5
    assert [b.block_id for b in f] == ["b1", "b2"]


def test_job_report_properties():
    report = JobReport(job_name="j", submitted_at=10.0, finished_at=30.0,
                       map_phase_end=18.0)
    assert report.elapsed == 20.0
    assert report.map_phase_s == 8.0
    assert report.reduce_phase_s == 12.0
    assert report.locality_fractions() == {}
    report.tasks.append(TaskAttempt("m-0", "map", "t", 0, 1, 10, 5, "node"))
    report.tasks.append(TaskAttempt("m-1", "map", "t", 0, 2, 10, 5, "remote"))
    fractions = report.locality_fractions()
    assert fractions["node"] == pytest.approx(0.5)
    assert report.tasks[0].elapsed == 1


def test_cluster_model_and_result_helpers():
    model = ClusterModel(2, (1.0, 2.0), weight=5.0)
    assert (model.cluster_id, model.center, model.radius) == (2, (1.0, 2.0),
                                                              0.0)
    result = ClusteringResult(algorithm="x", models=[model])
    assert result.k == 1
    assert not result.converged and result.history == []
    assert ClusteringResult(algorithm="x", models=[]).k == 0


def test_migration_report_edge_cases():
    report = ClusterMigrationReport(label="empty")
    assert report.overall_downtime_s == 0.0
    assert report.max_downtime_s == 0.0
    assert report.downtime_spread() == 1.0
    record = MigrationRecord(vm="v", source="a", destination="b",
                             memory_bytes=100, started_at=0.0,
                             total_sent_bytes=250.0)
    assert record.overhead_ratio == 2.5
    assert record.n_rounds == 0


def test_placement_accessors():
    placement = ClusterSpec.packed(6, hosts=2).placement(2)
    assert placement.host_of(0) == 0
    assert placement.host_of(5) == 1
    assert placement.n_vms == 6


def test_tracker_lookup_and_hosts():
    platform = VHadoopPlatform(PlatformConfig(n_hosts=2, seed=0))
    cluster = platform.provision_cluster("t", ClusterSpec.single_host(3))
    tracker = cluster.tracker_of(cluster.workers[0].name)
    assert tracker is not None and tracker.vm is cluster.workers[0]
    assert cluster.tracker_of("nope") is None
    assert cluster.hosts_used() == {"pm0"}
    assert not cluster.cross_domain
    assert cluster.n_nodes == 3
