"""Correctness tests for the six clustering algorithms.

All algorithms run over well-separated synthetic blobs through the
LocalExecutor (pure math).  Cluster-executor equivalence is covered in
test_cluster_equivalence.py.
"""

import warnings

import numpy as np
import pytest

from repro.errors import ClusteringError
from repro.ml import (CanopyDriver, DirichletDriver, FuzzyKMeansDriver,
                      KMeansDriver, LocalExecutor, MeanShiftDriver,
                      MinHashDriver, points_as_records)
from repro.ml.canopy import canopy_pass
from repro.ml.fuzzykmeans import memberships
from repro.ml.vectors import EuclideanDistance

CENTERS = np.array([[0.0, 0.0], [10.0, 10.0], [-10.0, 8.0]])


def make_blobs(n_per=40, sigma=0.6, seed=0):
    rng = np.random.default_rng(seed)
    pts = np.vstack([rng.normal(c, sigma, size=(n_per, 2)) for c in CENTERS])
    labels = np.repeat(np.arange(len(CENTERS)), n_per)
    return pts, labels


@pytest.fixture()
def blobs():
    return make_blobs()


def center_rows(result) -> np.ndarray:
    """The models' centers as rows, read the way the canopy driver does."""
    return np.array([m.center for m in result.models], dtype=float)


def executor_for(points):
    return LocalExecutor({"/in": points_as_records(points)}, seed=1)


def match_centers(found: np.ndarray, truth: np.ndarray, tol: float) -> bool:
    """Every true center has a found center within tol."""
    for t in truth:
        if not any(np.linalg.norm(f - t) < tol for f in found):
            return False
    return True


# --- k-means -----------------------------------------------------------------

def test_kmeans_recovers_blob_centers(blobs):
    # Seeded near the truth (the paper's pipeline seeds k-means from
    # canopy centers); random seeding can hit bad local optima, which is
    # k-means behaving correctly, not a bug.
    points, labels = blobs
    init = [tuple(c) for c in CENTERS + 1.2]
    result = KMeansDriver(initial_centers=init, max_iterations=20).run(
        executor_for(points), "/in")
    assert result.converged
    assert match_centers(center_rows(result), CENTERS, tol=1.0)
    # Assignments agree with ground truth up to relabeling.
    by_truth = {}
    for pid, cid in result.assignments.items():
        by_truth.setdefault(labels[pid], set()).add(cid)
    assert all(len(cids) == 1 for cids in by_truth.values())


def test_kmeans_explicit_centers_deterministic(blobs):
    points, _ = blobs
    init = [tuple(c) for c in CENTERS + 0.5]
    a = KMeansDriver(initial_centers=init).run(executor_for(points), "/in")
    b = KMeansDriver(initial_centers=init).run(executor_for(points), "/in")
    assert np.allclose(center_rows(a), center_rows(b))


def test_kmeans_weights_sum_to_n(blobs):
    points, _ = blobs
    result = KMeansDriver(k=3, max_iterations=20).run(
        executor_for(points), "/in")
    assert sum(m.weight for m in result.models) == pytest.approx(len(points))


def test_kmeans_validation():
    with pytest.raises(ClusteringError):
        KMeansDriver()
    with pytest.raises(ClusteringError):
        KMeansDriver(k=0)
    points, _ = make_blobs(n_per=1)
    with pytest.raises(ClusteringError):
        KMeansDriver(k=50).run(executor_for(points), "/in")


@pytest.mark.parametrize("driver", [KMeansDriver, FuzzyKMeansDriver])
def test_initial_centers_are_checked_at_construction(driver):
    five = [(float(i), 0.0) for i in range(5)]
    with pytest.raises(ClusteringError, match="k=3 but 5 initial_centers"):
        driver(k=3, initial_centers=five)
    with pytest.raises(ClusteringError, match="non-empty"):
        driver(initial_centers=[])
    with pytest.raises(ClusteringError, match="non-empty"):
        driver(initial_centers=[()])
    with pytest.raises(ClusteringError, match=r"mixed dimensions \[1, 2\]"):
        driver(initial_centers=[(0.0, 0.0), (1.0,)])
    assert driver(k=5, initial_centers=five).k == 5


@pytest.mark.parametrize("driver", [KMeansDriver, FuzzyKMeansDriver])
def test_initial_center_dimension_is_checked_before_any_job(driver, blobs):
    points, _labels = blobs
    executor = executor_for(points)
    with pytest.raises(ClusteringError, match="3 dimensions, the input "
                                              "records 2"):
        driver(initial_centers=[(0.0, 0.0, 0.0)]).run(executor, "/in")
    assert executor.outputs == {}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_points_fail_at_staging(bad):
    points = np.array([[0.0, 0.0], [1.0, 1.0], [bad, 5.0], [9.0, 9.0],
                       [10.0, 10.0]])
    # Unstaged, k-means would put the point in cluster 0 and return a
    # non-finite center 0 without an error.
    with pytest.raises(ClusteringError, match=r"point 2 has a non-finite "
                                              r"coordinate: \[.*, 5\.0\]"):
        KMeansDriver(initial_centers=[(0.0, 0.0), (10.0, 10.0)]).run(
            executor_for(points), "/in")
    points[3, 1] = bad
    with pytest.raises(ClusteringError, match="point 2 "):
        points_as_records(points)


def test_staged_records_are_read_only_rows_of_a_private_copy():
    points = np.array([[0.0, 1.0], [2.0, 3.0]])
    records = points_as_records(points)
    points[0, 0] = 99.0
    assert [(i, row.tolist()) for i, row in records] == \
        [(0, [0.0, 1.0]), (1, [2.0, 3.0])]
    for _i, row in records:
        assert row.dtype == np.float64 and row.shape == (2,)
        with pytest.raises(ValueError, match="read-only"):
            row[0] = 5.0


def test_kmeans_random_seed_converges(blobs):
    points, _ = blobs
    result = KMeansDriver(k=3, max_iterations=30).run(
        executor_for(points), "/in")
    assert result.converged
    assert result.k == 3


def test_kmeans_history_tracks_iterations(blobs):
    points, _ = blobs
    result = KMeansDriver(k=3, max_iterations=20).run(
        executor_for(points), "/in")
    assert len(result.history) == result.iterations
    assert len(result.per_iteration_s) == result.iterations


# --- canopy -------------------------------------------------------------------

def test_canopy_pass_thresholds():
    measure = EuclideanDistance()
    points = np.array([[0.0, 0.0], [0.1, 0.0], [5.0, 5.0]])
    canopies = canopy_pass(points, t1=1.0, t2=0.5, measure=measure)
    assert len(canopies) == 2  # the two nearby points share a canopy


def test_canopy_finds_three_blobs(blobs):
    points, _ = blobs
    result = CanopyDriver(t1=6.0, t2=3.0).run(executor_for(points), "/in")
    assert result.k == 3
    assert match_centers(center_rows(result), CENTERS, tol=2.0)


def test_canopy_assignment_pass(blobs):
    points, _ = blobs
    result = CanopyDriver(t1=6.0, t2=3.0).run(executor_for(points), "/in",
                                              assign=True)
    assert len(result.assignments) == len(points)


def test_canopy_threshold_validation():
    with pytest.raises(ClusteringError):
        CanopyDriver(t1=1.0, t2=2.0)
    with pytest.raises(ClusteringError):
        CanopyDriver(t1=1.0, t2=0.0)


# --- fuzzy k-means --------------------------------------------------------------

def test_fuzzy_memberships_rows_sum_to_one():
    distances = np.array([[1.0, 2.0, 4.0], [3.0, 0.5, 1.0]])
    u = memberships(distances, m=2.0)
    assert np.allclose(u.sum(axis=1), 1.0)
    # Closer centers get higher membership.
    assert u[0, 0] > u[0, 1] > u[0, 2]


def test_fuzzy_exact_hit_handled():
    distances = np.array([[0.0, 5.0]])
    u = memberships(distances, m=2.0)
    assert u[0, 0] > 0.99


def test_fuzzy_recovers_blob_centers(blobs):
    points, _ = blobs
    result = FuzzyKMeansDriver(k=3, max_iterations=25).run(
        executor_for(points), "/in")
    assert match_centers(center_rows(result), CENTERS, tol=1.5)


def test_fuzzy_soft_assignments(blobs):
    points, _ = blobs
    driver = FuzzyKMeansDriver(k=3, max_iterations=25)
    result = driver.run(executor_for(points), "/in")
    u = memberships(driver.measure.to_centers(points, center_rows(result)),
                    driver.m)
    assert u.shape == (len(points), 3)
    assert np.allclose(u.sum(axis=1), 1.0)


def test_fuzzy_validation():
    with pytest.raises(ClusteringError):
        FuzzyKMeansDriver(k=3, m=1.0)
    with pytest.raises(ClusteringError):
        FuzzyKMeansDriver()


# --- mean shift -----------------------------------------------------------------

def test_meanshift_converges_to_blob_modes(blobs):
    points, _ = blobs
    result = MeanShiftDriver(t1=4.0, t2=2.0, max_iterations=15).run(
        executor_for(points), "/in")
    assert result.converged
    assert 3 <= result.k <= 5
    assert match_centers(center_rows(result), CENTERS, tol=2.0)


def test_meanshift_weight_conserved(blobs):
    points, _ = blobs
    result = MeanShiftDriver(t1=4.0, t2=2.0, max_iterations=15).run(
        executor_for(points), "/in")
    assert sum(m.weight for m in result.models) == pytest.approx(len(points))


def test_meanshift_validation():
    with pytest.raises(ClusteringError):
        MeanShiftDriver(t1=1.0, t2=1.5)
    with pytest.raises(ClusteringError):
        MeanShiftDriver(t1=2.0, t2=1.0, max_iterations=0)


@pytest.mark.parametrize("driver", [
    lambda delta: KMeansDriver(k=3, convergence_delta=delta),
    lambda delta: FuzzyKMeansDriver(k=3, convergence_delta=delta),
    lambda delta: MeanShiftDriver(t1=4.0, t2=2.0, convergence_delta=delta),
], ids=["KMeansDriver", "FuzzyKMeansDriver", "MeanShiftDriver"])
def test_convergence_delta_must_be_a_finite_shift(driver):
    # NaN stopped mean-shift as converged after one pass and ran k-means to
    # its budget; a negative delta never converged.
    for delta in (np.nan, np.inf, -np.inf, -1.0):
        with pytest.raises(ClusteringError, match="convergence_delta must "
                                                  "be a finite shift >= 0"):
            driver(delta)
    assert driver(0).convergence_delta == 0.0


@pytest.mark.parametrize("driver, field", [
    (lambda v: FuzzyKMeansDriver(k=3, m=v), "fuzziness m"),
    (lambda v: DirichletDriver(alpha0=v), "alpha0"),
], ids=["FuzzyKMeansDriver.m", "DirichletDriver.alpha0"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_fuzziness_and_concentration_must_be_finite(driver, field, value):
    # NaN passed `m <= 1` and `alpha0 <= 0`: fuzzy k-means returned NaN
    # centers and Dirichlet collapsed to one model.
    with pytest.raises(ClusteringError, match=f"{field} must be a finite"):
        driver(value)


# --- dirichlet -------------------------------------------------------------------

def test_dirichlet_finds_significant_models(blobs):
    points, _ = blobs
    result = DirichletDriver(n_models=8, max_iterations=8).run(
        executor_for(points), "/in")
    assert 1 <= result.k <= 8
    # The significant models' total support covers most points.
    assert sum(m.weight for m in result.models) > 0.7 * len(points)


def test_dirichlet_reproducible(blobs):
    points, _ = blobs
    a = DirichletDriver(n_models=6, max_iterations=5).run(
        executor_for(points), "/in")
    b = DirichletDriver(n_models=6, max_iterations=5).run(
        executor_for(points), "/in")
    assert np.allclose(center_rows(a), center_rows(b))


def test_dirichlet_validation():
    with pytest.raises(ClusteringError):
        DirichletDriver(n_models=0)
    with pytest.raises(ClusteringError):
        DirichletDriver(alpha0=0.0)
    with pytest.raises(ClusteringError):
        DirichletDriver(max_iterations=0)


def test_dirichlet_on_empty_input_fails_before_any_job():
    executor = executor_for(np.empty((0, 2)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # no mean-of-empty-slice warnings
        with pytest.raises(ClusteringError, match="no input points at '/in'"):
            DirichletDriver().run(executor, "/in")
    assert executor.outputs == {}


# --- minhash -------------------------------------------------------------------

def test_minhash_clusters_similar_points(blobs):
    points, labels = blobs
    result = MinHashDriver(num_hashes=12, key_groups=2, bucket=4.0,
                           min_cluster_size=4).run(executor_for(points),
                                                   "/in")
    assert result.k >= 3
    # Most points within a minhash cluster share a ground-truth blob.
    agreements = total = 0
    for cid in set(result.assignments.values()):
        members = [pid for pid, c in result.assignments.items() if c == cid]
        truth = [labels[pid] for pid in members]
        agreements += max(truth.count(t) for t in set(truth))
        total += len(members)
    assert total > 0
    assert agreements / total > 0.9


def test_minhash_deterministic(blobs):
    points, _ = blobs
    a = MinHashDriver(seed=3).run(executor_for(points), "/in")
    b = MinHashDriver(seed=3).run(executor_for(points), "/in")
    assert a.assignments == b.assignments


def test_minhash_validation():
    with pytest.raises(ClusteringError):
        MinHashDriver(num_hashes=0)
    with pytest.raises(ClusteringError):
        MinHashDriver(min_cluster_size=0)


@pytest.mark.parametrize("bucket", [0.0, -1.0, np.nan, np.inf])
def test_minhash_bucket_must_be_a_finite_positive_width(bucket):
    # Zero and NaN collapsed every point into one cluster (with a cast
    # warning); a negative width mirrored the grid.
    with pytest.raises(ClusteringError, match="bucket must be a finite "
                                              "width > 0"):
        MinHashDriver(bucket=bucket)
