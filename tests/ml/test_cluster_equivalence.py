"""Local-vs-cluster equivalence: every driver produces identical models
whether its jobs run functionally (LocalExecutor) or on the simulated
hadoop virtual cluster (ClusterExecutor) — DESIGN.md decision 1."""

import numpy as np
import pytest

from repro.config import PlatformConfig
from repro.datasets.sample_data import generate_sample_data
from repro.ml import (CanopyDriver, ClusterExecutor, FuzzyKMeansDriver,
                      KMeansDriver, LocalExecutor, MeanShiftDriver,
                      MinHashDriver, points_as_records)
from repro.ml.base import stage_points
from repro.platform import ClusterSpec, VHadoopPlatform
from tests.ml.test_clustering import center_rows


@pytest.fixture(scope="module")
def points():
    pts, _ = generate_sample_data(np.random.default_rng(7))
    return pts[:300]


def cluster_executor(points, seed=1):
    platform = VHadoopPlatform(PlatformConfig(n_hosts=2, seed=seed))
    cluster = platform.provision_cluster("eq", ClusterSpec.single_host(6))
    stage_points(platform, cluster, "/in", points)
    return ClusterExecutor(platform.runner(cluster), cluster)


def local_executor(points):
    return LocalExecutor({"/in": points_as_records(points)}, seed=1)


def assert_same_models(a, b):
    assert a.k == b.k
    assert np.allclose(center_rows(a), center_rows(b), atol=1e-9)
    assert [m.weight for m in a.models] == pytest.approx(
        [m.weight for m in b.models])


def test_kmeans_equivalence(points):
    init = [tuple(p) for p in points[:3]]
    local = KMeansDriver(initial_centers=init, max_iterations=6).run(
        local_executor(points), "/in")
    cluster = KMeansDriver(initial_centers=init, max_iterations=6).run(
        cluster_executor(points), "/in")
    assert_same_models(local, cluster)
    assert local.assignments == cluster.assignments
    assert local.iterations == cluster.iterations
    assert cluster.runtime_s > 0 and local.runtime_s == 0


def test_canopy_equivalence(points):
    local = CanopyDriver(t1=3.0, t2=1.5).run(local_executor(points), "/in")
    cluster = CanopyDriver(t1=3.0, t2=1.5).run(cluster_executor(points),
                                               "/in")
    assert_same_models(local, cluster)


def test_fuzzy_equivalence(points):
    init = [tuple(p) for p in points[:3]]
    local = FuzzyKMeansDriver(initial_centers=init, max_iterations=4).run(
        local_executor(points), "/in")
    cluster = FuzzyKMeansDriver(initial_centers=init, max_iterations=4).run(
        cluster_executor(points), "/in")
    assert_same_models(local, cluster)


def test_meanshift_equivalence(points):
    local = MeanShiftDriver(t1=2.0, t2=1.0, max_iterations=4).run(
        local_executor(points), "/in")
    cluster = MeanShiftDriver(t1=2.0, t2=1.0, max_iterations=4).run(
        cluster_executor(points), "/in")
    assert_same_models(local, cluster)


def test_minhash_equivalence(points):
    local = MinHashDriver(num_hashes=8, bucket=2.0, seed=5).run(
        local_executor(points), "/in")
    cluster = MinHashDriver(num_hashes=8, bucket=2.0, seed=5).run(
        cluster_executor(points), "/in")
    assert local.assignments == cluster.assignments
    assert local.k == cluster.k
