"""Differential oracles for the batched clustering kernels.

Canopy measures a window of points per call (founder epochs), mean-shift
its neighbourhoods in row blocks, and Dirichlet its likelihoods per split.
The per-pair loops and the one-call-per-point passes they replaced live on
here as the references: same decisions, same bits.
"""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.sample_data import generate_sample_data
from repro.datasets.synthetic_control import generate_synthetic_control
from repro.experiments import fig6_synthetic_control as fig6
from repro.experiments import fig7_display_clustering as fig7
from repro.experiments.common import make_platform, scaled_cluster
from repro.mapreduce.api import Context, run_mapper
from repro.ml import ClusterExecutor, meanshift
from repro.ml.base import read_only, stage_points
from repro.ml.canopy import CanopyMapper, canopy_pass
from repro.ml.dirichlet import DirichletMapper, sample_rows
from repro.ml.meanshift import MeanShiftMapper, shift_and_merge
from repro.ml.vectors import MEASURES, Centers, EuclideanDistance
from tests.ml.test_split_mappers import exact_stats


# --- the retired per-pair loops, verbatim ------------------------------------

def canopy_pass_reference(points, t1, t2, measure):
    canopies = []  # [founder, sum, count]
    for point in points:
        absorbed = False
        for canopy in canopies:
            dist = measure.distance(point, canopy[0])
            if dist < t1:
                canopy[1] = canopy[1] + point
                canopy[2] += 1
            if dist < t2:
                absorbed = True
        if not absorbed:
            canopies.append([point.copy(), point.copy(), 1])
    return [(c[1] / c[2], c[2]) for c in canopies]


def shift_and_merge_reference(canopies, t1, t2, measure, delta):
    if not canopies:
        return [], True
    centers = np.vstack([c for c, _w in canopies])
    weights = np.asarray([w for _c, w in canopies])
    distances = measure.to_centers(centers, centers)
    all_converged = True
    shifted = []
    for i in range(len(canopies)):
        mask = distances[i] < t1
        total_w = weights[mask].sum()
        mean = (centers[mask] * weights[mask, None]).sum(axis=0) / total_w
        if measure.distance(mean, centers[i]) > delta:
            all_converged = False
        shifted.append((mean, float(weights[i])))
    merged = []
    for center, weight in shifted:
        for j, (mc, mw) in enumerate(merged):
            if measure.distance(center, mc) < t2:
                new_w = mw + weight
                merged[j] = ((mc * mw + center * weight) / new_w, new_w)
                break
        else:
            merged.append((center, weight))
    return merged, all_converged


# --- the retired one-call-per-point passes, verbatim --------------------------

def canopy_pass_one_call_per_point(points, t1, t2, measure):
    points = np.asarray(points, dtype=float)
    # Canopies 0..k-1 live in preallocated rows, so one to_centers call
    # measures a point against every founder.
    founders = Centers(points[:0], capacity=len(points))
    sums = np.empty_like(points)
    counts = np.zeros(len(points), dtype=int)
    k = 0
    for point in points:
        dist = measure.to_centers(point[None], founders)[0]
        within_t1 = np.flatnonzero(dist < t1)
        sums[within_t1] += point
        counts[within_t1] += 1
        if not (dist < t2).any():
            founders.append(point)
            sums[k] = point
            counts[k] = 1
            k += 1
    return list(zip(read_only(sums[:k] / counts[:k, None]),
                    counts[:k].tolist()))


def shift_and_merge_one_call_per_point(canopies, t1, t2, measure, delta):
    if not canopies:
        return [], True
    centers = np.vstack([c for c, _w in canopies])
    weights = np.asarray([w for _c, w in canopies], dtype=float)
    # Each mean sums the rows of one weighted stack picked by one row of
    # the neighbourhood matrix; a matmul here would change the means' bits.
    within_t1 = measure.to_centers(centers, centers) < t1
    weighted = centers * weights[:, None]
    means = np.empty_like(centers)
    for i, row in enumerate(within_t1):
        means[i] = weighted[row].sum(axis=0) / weights[row].sum()
    all_converged = not (measure.paired(means, centers) > delta).any()
    # Merge canopies within T2 (the earliest such canopy absorbs the later
    # one); merged canopies 0..m-1 live in preallocated rows.
    merged = Centers(centers[:0], capacity=len(centers))
    merged_w: list[float] = []
    for center, weight in zip(means, weights.tolist()):
        near = measure.to_centers(center[None], merged)[0] < t2
        if near.any():
            j = int(near.argmax())
            new_w = merged_w[j] + weight
            merged.replace(j, (merged.rows[j] * merged_w[j] + center * weight)
                           / new_w)
            merged_w[j] = new_w
        else:
            merged.append(center)
            merged_w.append(weight)
    return list(zip(read_only(merged.rows), merged_w)), all_converged


def _bits(pairs):
    return [(row.tobytes(), n) for row, n in pairs]


def log_pdf_reference(model, x):
    d = len(model.mean)
    diff = x - model.mean
    return (-0.5 * float(diff @ diff) / (model.sigma ** 2)
            - d * math.log(model.sigma)
            - 0.5 * d * math.log(2.0 * math.pi))


class PerRecordDirichletMapper(DirichletMapper):
    """The retired ``map``: K scalar ``log_pdf`` calls and one
    ``rng.choice`` per record, emitting as it goes."""

    def map(self, key, value, context):
        x = np.asarray(value, dtype=float)
        logs = np.asarray([math.log(max(m.weight, 1e-12))
                           + log_pdf_reference(m, x) for m in self.models])
        logs -= logs.max()
        probs = np.exp(logs)
        probs /= probs.sum()
        z = int(self._rng.choice(len(self.models), p=probs))
        context.emit(z, (tuple(x), tuple(x * x), 1))

    def cleanup(self, context):
        pass


# --- (a) canopy rule and shift-and-merge against the per-pair loops ----------

# Coordinates and canopy thresholds are multiples of 1/8 in a small range:
# every product and sum is exact, so a one-row and an all-rows matmul agree
# to the bit and a point *exactly* at T1 or T2 (which this grid produces
# often) is decided the same way by both implementations.
_grid = st.integers(-32, 32).map(lambda i: i / 8.0)


@st.composite
def _points(draw):
    d = draw(st.integers(1, 4))
    n = draw(st.integers(0, 24))
    rows = draw(st.lists(st.lists(_grid, min_size=d, max_size=d),
                         min_size=n, max_size=n))
    return np.asarray(rows, dtype=float).reshape(n, d)


@settings(max_examples=60, deadline=None)
@given(_points(), st.integers(1, 64), st.integers(1, 64))
def test_canopy_pass_matches_per_pair_reference(points, a, b):
    t2, t1 = sorted((a / 8.0, b / 8.0))
    for cls in MEASURES.values():
        got = canopy_pass(points, t1, t2, cls())
        want = canopy_pass_reference(points, t1, t2, cls())
        assert [n for _c, n in got] == [n for _c, n in want]
        for (centroid, _), (ref, _) in zip(got, want):
            assert np.array_equal(centroid, ref)


# Shifted means are no longer on the grid, so mean-shift thresholds sit off
# it: a distance within an ulp of one of these is not something small
# rationals produce.
_off_grid = st.integers(1, 64).map(lambda i: i / 8.0 + math.pi / 1000.0)


@settings(max_examples=60, deadline=None)
@given(_points(), st.lists(st.integers(1, 4), min_size=24, max_size=24),
       _off_grid, _off_grid, _off_grid)
def test_shift_and_merge_matches_per_pair_reference(points, ws, a, b, delta):
    t2, t1 = sorted((a, b))
    canopies = [(p, float(w)) for p, w in zip(points, ws)]
    for cls in MEASURES.values():
        # A zero vector is at cosine distance 1 from itself: nothing within
        # T1, a 0/0 mean — NaN in both implementations, in the same places.
        with np.errstate(invalid="ignore"):
            got, got_conv = shift_and_merge(canopies, t1, t2, cls(), delta)
            want, want_conv = shift_and_merge_reference(canopies, t1, t2,
                                                        cls(), delta)
        assert got_conv == want_conv
        assert [w for _c, w in got] == [w for _c, w in want]
        for (center, _), (ref, _) in zip(got, want):
            assert np.array_equal(center, ref, equal_nan=True)


# --- (b) one rng.random(n) draws what n rng.choice calls draw -----------------

@st.composite
def _prob_rows(draw):
    k = draw(st.integers(1, 8))
    n = draw(st.integers(0, 30))
    mass = st.one_of(st.just(0.0), st.floats(1e-9, 1.0))
    rows = draw(st.lists(
        st.lists(mass, min_size=k, max_size=k).filter(lambda r: sum(r) > 0),
        min_size=n, max_size=n))
    probs = np.asarray(rows, dtype=float).reshape(n, k)
    return probs / probs.sum(axis=1, keepdims=True)


@settings(max_examples=100, deadline=None)
@given(_prob_rows(), st.integers(0, 2**32 - 1))
def test_sample_rows_equals_choice_row_by_row(probs, seed):
    batched, per_row = np.random.default_rng(seed), np.random.default_rng(seed)
    want = [int(per_row.choice(probs.shape[1], p=row)) for row in probs]
    assert sample_rows(batched, probs).tolist() == want
    # ... and both generators are left at the same point of the stream.
    assert batched.random() == per_row.random()


def test_sample_rows_never_draws_a_zero_probability_model():
    probs = np.tile([0.0, 0.5, 0.0, 0.5, 0.0], (2000, 1))
    draws = sample_rows(np.random.default_rng(3), probs)
    assert set(draws.tolist()) == {1, 3}


def test_dirichlet_mapper_matches_per_record_reference():
    rng = np.random.default_rng(5)
    records = [(i, tuple(row)) for i, row in enumerate(rng.normal(size=(200, 6)))]
    models = [(tuple(rng.normal(size=6)), 0.5 + k / 4.0, w)
              for k, w in enumerate((0.4, 0.3, 0.0, 0.2, 0.1))]
    got = run_mapper(DirichletMapper(models, seed=1000), records,
                     Context(task_id="m-3"))
    want = run_mapper(PerRecordDirichletMapper(models, seed=1000), records,
                      Context(task_id="m-3"))
    # Record order, same assignments, same bits.
    assert exact_stats(got) == exact_stats(want, emitted=False)
    assert len({z for z, _stats in got}) > 1


# --- (c) pinned models+history digests, recorded before the kernels changed --

def _hex(models):
    return [(m.cluster_id, [float(x).hex() for x in m.center],
             float(m.weight).hex(), float(m.radius).hex()) for m in models]


def _digest(platform, cluster, path, drivers):
    executor = ClusterExecutor(platform.runner(cluster), cluster)
    h = hashlib.sha256()
    for name, driver in drivers.items():
        out = driver.run(executor, path, work_prefix=f"/{name}")
        h.update(repr((name, float(out.runtime_s).hex(), out.iterations,
                       out.converged, _hex(out.models),
                       [_hex(step) for step in out.history])).encode())
    return h.hexdigest()


def test_fig6_models_and_history_digest_is_the_recorded_one():
    platform = make_platform(seed=0)
    points, _labels = generate_synthetic_control(
        n_per_class=20, rng=platform.datacenter.rng.fresh("datasets/control"))
    cluster = scaled_cluster(platform, 2)
    stage_points(platform, cluster, "/control/input", points)
    assert _digest(platform, cluster, "/control/input", fig6._drivers(5)) == \
        "b411765d23e717ef0ebb5ff515f26fafb2db8715ddd59a6cb517cbf0c490d794"


def test_fig7_models_and_history_digest_is_the_recorded_one():
    platform = make_platform(seed=0)
    points, _labels = generate_sample_data(
        platform.datacenter.rng.fresh("datasets/sample"))
    cluster = scaled_cluster(platform, 2, hadoop_config=fig7._LIGHT_CONFIG)
    stage_points(platform, cluster, "/samples/input", points)
    assert _digest(platform, cluster, "/samples/input",
                   fig7.make_drivers()) == \
        "bb0a44b62b273d9f7c2a2400c88d802ec27ffcfef847d9099bbdf5b7a378c2c4"


# --- (d) edge cases -----------------------------------------------------------

def test_canopy_pass_edge_cases():
    measure = EuclideanDistance()
    assert canopy_pass(np.empty((0, 3)), 2.0, 1.0, measure) == []
    [(centroid, n)] = canopy_pass(np.array([[1.0, 2.0]]), 2.0, 1.0, measure)
    assert n == 1 and centroid.tolist() == [1.0, 2.0]
    # Everything within T2 of the first point: one canopy, the mean of all.
    near = np.array([[0.0, 0.0], [0.25, 0.0], [0.0, 0.5], [0.25, 0.5]])
    [(centroid, n)] = canopy_pass(near, 2.0, 1.0, measure)
    assert n == 4 and centroid.tolist() == [0.125, 0.25]


def test_shift_and_merge_edge_cases():
    measure = EuclideanDistance()
    assert shift_and_merge([], 2.0, 1.0, measure, 0.5) == ([], True)
    [(center, w)], converged = shift_and_merge(
        [(np.array([1.0, 2.0]), 3.0)], 2.0, 1.0, measure, 0.5)
    assert converged and w == 3.0 and center.tolist() == [1.0, 2.0]
    # Everything within T2: all shift to the common mean and merge into one.
    near = [(np.array(p), 1.0)
            for p in ([0.0, 0.0], [0.25, 0.0], [0.0, 0.5], [0.25, 0.5])]
    [(center, w)], converged = shift_and_merge(near, 2.0, 1.0, measure, 0.5)
    assert converged and w == 4.0 and center.tolist() == [0.125, 0.25]


@pytest.mark.parametrize("mapper", [
    CanopyMapper(2.0, 1.0, EuclideanDistance()),
    MeanShiftMapper(2.0, 1.0, EuclideanDistance(), 0.5),
    DirichletMapper([((0.0, 0.0), 1.0, 1.0)], seed=1),
], ids=lambda m: type(m).__name__)
def test_empty_split_emits_nothing(mapper):
    assert run_mapper(mapper, [], Context()) == []


@pytest.mark.parametrize("mapper, record", [
    (CanopyMapper(2.0, 1.0, EuclideanDistance()), lambda point: point),
    (MeanShiftMapper(2.0, 1.0, EuclideanDistance(), 0.5),
     lambda point: (point, 1.0)),
], ids=["CanopyMapper", "MeanShiftMapper"])
def test_canopies_travel_as_read_only_rows(mapper, record):
    records = [(i, record((float(i), -float(i)))) for i in range(6)]
    pairs = run_mapper(mapper, records, Context())
    assert len(pairs) > 1
    for _key, (center, *_rest) in pairs:
        assert isinstance(center, np.ndarray) and center.dtype == np.float64
        assert center.shape == (2,) and not center.flags.writeable


# --- (e) full-size inputs and edge cases against the one-call passes ----------

def _fig6_points():
    rng = make_platform(seed=0).datacenter.rng.fresh("datasets/control")
    return generate_synthetic_control(n_per_class=300, rng=rng)[0]


def _fig7_points():
    rng = make_platform(seed=0).datacenter.rng.fresh("datasets/sample")
    return generate_sample_data(rng)[0]


# The 120-point digest pins above fit in one neighbourhood block and a few
# epochs; these sizes take many of each.  At 900 x 60 some block distances
# differ from the one-call product's by an ulp (vectors.py); no decision may.
@pytest.mark.parametrize("points, canopy_t, meanshift_t", [
    (_fig6_points, (fig6.CANOPY_T1, fig6.CANOPY_T2),
     (fig6.MEANSHIFT_T1, fig6.MEANSHIFT_T2)),
    (lambda: _fig6_points()[:900], (fig6.CANOPY_T1, fig6.CANOPY_T2),
     (fig6.MEANSHIFT_T1, fig6.MEANSHIFT_T2)),
    (_fig7_points, (3.0, 1.5), (2.0, 1.0)),
], ids=["fig6-1800x60", "fig6-900x60", "fig7-1000x2"])
def test_full_size_passes_match_the_one_call_per_point_passes(
        points, canopy_t, meanshift_t):
    points = points()
    measure = EuclideanDistance()
    assert len(meanshift._row_blocks(len(points))) > 1
    got = canopy_pass(points, *canopy_t, measure)
    assert len(got) > 2
    assert _bits(got) == _bits(canopy_pass_one_call_per_point(
        points, *canopy_t, measure))
    canopies = [(p, 1.0) for p in points]
    for _ in range(2):  # unit weights, then the merged, weighted canopies
        got, converged = shift_and_merge(canopies, *meanshift_t, measure, 0.5)
        want, want_converged = shift_and_merge_one_call_per_point(
            canopies, *meanshift_t, measure, 0.5)
        assert _bits(got) == _bits(want) and converged == want_converged
        canopies = got


def test_signed_zeros_survive_both_passes():
    points = np.array([[-0.0, 0.0], [10.0, 10.0], [-0.0, 0.5],
                       [10.0, -0.0], [-0.0, -0.0], [10.5, -0.0]])
    measure = EuclideanDistance()
    got = canopy_pass(points, 3.0, 1.5, measure)
    assert _bits(got) == _bits(canopy_pass_one_call_per_point(
        points, 3.0, 1.5, measure))
    # A point outside T1 adds -0.0 to a founder's sum: +0.0 would flip it.
    assert np.signbit(got[0][0][0]) and np.signbit(got[2][0][1])
    canopies = [(p, 1.0) for p in points]
    got, _ = shift_and_merge(canopies, 3.0, 1.5, measure, 0.5)
    want, _ = shift_and_merge_one_call_per_point(canopies, 3.0, 1.5,
                                                 measure, 0.5)
    assert _bits(got) == _bits(want)  # the sums start from +0.0 in both


class CountingEuclidean(EuclideanDistance):
    def __init__(self):
        self.calls = 0

    def to_centers(self, points, centers):
        self.calls += 1
        return super().to_centers(points, centers)


def test_an_all_founders_canopy_pass_makes_at_most_one_call_per_point():
    points = np.random.default_rng(11).normal(size=(400, 3))
    measure = CountingEuclidean()
    got = canopy_pass(points, 0.5, 1e-9, measure)
    assert len(got) == len(points) and measure.calls <= len(points)
    assert _bits(got) == _bits(canopy_pass_one_call_per_point(
        points, 0.5, 1e-9, EuclideanDistance()))


def test_a_one_row_remainder_joins_the_previous_block(monkeypatch):
    points = _fig7_points()
    measure = EuclideanDistance()
    monkeypatch.setattr(meanshift, "_BLOCK_CELLS", 37 * len(points))
    blocks = meanshift._row_blocks(len(points))  # 1,000 = 27 x 37 + 1
    assert blocks[-1] == (962, 1000) and len(blocks) == 27
    # T1 sits exactly on a last-row distance that a lone-row (gemv) call
    # measures an ulp shorter, so a 1-row block would change that mean.
    full = measure.to_centers(points, points)[-1]
    lone = measure.to_centers(points[-1:], Centers(points))[0]
    shorter = np.flatnonzero(lone < full)
    t1 = full[shorter[0]] if shorter.size else 2.0
    canopies = [(p, 1.0) for p in points]
    got, _ = shift_and_merge(canopies, t1, t1 / 2, measure, 0.5)
    want, _ = shift_and_merge_one_call_per_point(canopies, t1, t1 / 2,
                                                 measure, 0.5)
    assert _bits(got) == _bits(want)
