"""Split mappers: one kernel call per split, the bits of one per record.

The k-means, assign, fuzzy k-means and MinHash mappers buffer their split
in ``map`` and compute it in ``cleanup``.  The per-record ``map`` bodies
they replaced live on here, verbatim, as the oracles: same pairs, same
order, same value types, same bits.  The one difference is by design:
where an oracle emits a statistic vector as a tuple, the mapper emits a
read-only 1-D float64 row of the same bits.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.synthetic_control import generate_synthetic_control
from repro.mapreduce.api import Context, run_mapper
from repro.ml import minhash
from repro.ml.fuzzykmeans import FuzzyKMeansMapper, memberships
from repro.ml.kmeans import AssignMapper, KMeansMapper
from repro.ml.minhash import MinHashMapper, discretize, signature
from repro.ml.vectors import MEASURES


# --- the retired per-record map bodies, verbatim -----------------------------

class PerRecordKMeansMapper(KMeansMapper):
    def map(self, key, value, context):
        point = np.asarray(value, dtype=float)
        distances = self.measure.to_centers(point[None, :], self.centers)[0]
        nearest = int(np.argmin(distances))
        context.emit(nearest, (tuple(point), tuple(point * point), 1))

    def cleanup(self, context):
        pass


class PerRecordAssignMapper(AssignMapper):
    def map(self, key, value, context):
        point = np.asarray(value, dtype=float)
        distances = self.measure.to_centers(point[None, :], self.centers)[0]
        context.emit(int(key), int(np.argmin(distances)))

    def cleanup(self, context):
        pass


class PerRecordFuzzyKMeansMapper(FuzzyKMeansMapper):
    def map(self, key, value, context):
        point = np.asarray(value, dtype=float)
        distances = self.measure.to_centers(point[None, :], self.centers)
        u = memberships(distances, self.m)[0] ** self.m
        # Row cid of each product is u[cid] * point, element by element.
        stats = zip(u.tolist(), (u[:, None] * point).tolist(),
                    (u[:, None] * (point * point)).tolist())
        for cid, (w, vec, vec_sq) in enumerate(stats):
            context.emit(cid, (tuple(vec), tuple(vec_sq), w))

    def cleanup(self, context):
        pass


class PerRecordMinHashMapper(MinHashMapper):
    def map(self, key, value, context):
        sig = signature(discretize(value, self.bucket), self.hashes)
        group = max(1, self.key_groups)
        for band_start in range(0, len(sig), group):
            band = sig[band_start:band_start + group]
            band_key = f"b{band_start}-" + "-".join(map(str, band))
            context.emit(band_key, int(key))

    def cleanup(self, context):
        pass


def _exact(obj):
    """``obj`` with every leaf as (type, value) and floats as hex: equal
    ``_exact`` forms mean equal types and equal bits."""
    if isinstance(obj, (tuple, list)):
        return tuple(_exact(x) for x in obj)
    return (type(obj), obj.hex() if isinstance(obj, float) else obj)


def _same_output(mapper, oracle, records):
    got = run_mapper(mapper, records, Context(task_id="m-1"))
    want = run_mapper(oracle, records, Context(task_id="m-1"))
    assert got == want
    assert _exact(got) == _exact(want)


def exact_stats(pairs, emitted=True):
    """:func:`_exact` of ``(key, (vec, vec_sq, w))`` pairs, each vector as
    its float64 bytes.  ``emitted`` vectors must be read-only 1-D float64
    rows; the oracles' are tuples."""
    out = []
    for key, (vec, vec_sq, w) in pairs:
        if emitted:
            for row in (vec, vec_sq):
                assert isinstance(row, np.ndarray)
                assert row.dtype == np.float64 and row.ndim == 1
                assert not row.flags.writeable
        out.append((key, (np.asarray(vec, float).tobytes(),
                          np.asarray(vec_sq, float).tobytes(), w)))
    return _exact(out)


def _same_stats(mapper, oracle, records):
    """Same keys, order, counts, weight types and vector bits."""
    got = run_mapper(mapper, records, Context(task_id="m-1"))
    want = run_mapper(oracle, records, Context(task_id="m-1"))
    assert exact_stats(got) == exact_stats(want, emitted=False)


# --- (a) every mapper against its oracle -------------------------------------

# The 1/8 grid makes exact ties (argmin takes the first); the rest is any
# float small enough that no distance power under- or overflows.
_coord = st.one_of(st.integers(-32, 32).map(lambda i: i / 8.0),
                   st.floats(-1e6, 1e6))


@st.composite
def _split(draw):
    d = draw(st.integers(1, 8))
    row = st.tuples(*[_coord] * d)
    records = list(enumerate(draw(st.lists(row, max_size=12))))
    centers = draw(st.lists(row, min_size=1, max_size=6))
    return records, centers


@settings(max_examples=80, deadline=None)
@given(_split(), st.sampled_from(sorted(MEASURES)))
def test_kmeans_and_assign_mappers_match_per_record(split, name):
    records, centers = split
    measure = MEASURES[name]()
    _same_stats(KMeansMapper(centers, measure),
                PerRecordKMeansMapper(centers, measure), records)
    _same_output(AssignMapper(centers, measure),
                 PerRecordAssignMapper(centers, measure), records)


@settings(max_examples=80, deadline=None)
@given(_split(), st.sampled_from(sorted(MEASURES)),
       st.sampled_from([1.25, 2.0, 3.0]))
def test_fuzzy_kmeans_mapper_matches_per_record(split, name, m):
    records, centers = split
    measure = MEASURES[name]()
    _same_stats(FuzzyKMeansMapper(centers, measure, m),
                PerRecordFuzzyKMeansMapper(centers, measure, m), records)


@settings(max_examples=80, deadline=None)
@given(_split(), st.integers(1, 12), st.integers(1, 5),
       st.floats(0.01, 100.0), st.integers(0, 2**32 - 1))
def test_minhash_mapper_matches_per_record(split, num_hashes, key_groups,
                                           bucket, seed):
    records, _centers = split
    _same_output(MinHashMapper(num_hashes, key_groups, bucket, seed),
                 PerRecordMinHashMapper(num_hashes, key_groups, bucket, seed),
                 records)


def _mappers(centers, measure):
    """(mapper, its oracle, the comparison they must pass)."""
    return [
        (KMeansMapper(centers, measure),
         PerRecordKMeansMapper(centers, measure), _same_stats),
        (AssignMapper(centers, measure),
         PerRecordAssignMapper(centers, measure), _same_output),
        (FuzzyKMeansMapper(centers, measure, 2.0),
         PerRecordFuzzyKMeansMapper(centers, measure, 2.0), _same_stats),
        (MinHashMapper(8, 2, 2.0, 7), PerRecordMinHashMapper(8, 2, 2.0, 7),
         _same_output),
    ]


@pytest.mark.parametrize("name", sorted(MEASURES))
def test_empty_and_one_record_splits(name):
    centers = [(0.0, 1.0, 2.0), (3.0, -1.0, 0.5)]
    for mapper, oracle, same in _mappers(centers, MEASURES[name]()):
        assert run_mapper(mapper, [], Context()) == []
        same(mapper, oracle, [(4, (1.0, 2.0, 3.0))])


# --- (b) the fact the mappers rest on ----------------------------------------

def test_batch_axis_gives_the_bits_of_one_row_calls():
    # Fig. 6's data at full size: 1,800 points in 60 dimensions, 6 centers.
    points, _labels = generate_synthetic_control(
        n_per_class=300, rng=np.random.default_rng(0))
    centers = points[::300] + 0.5
    differs = set()
    for name, cls in MEASURES.items():
        measure = cls()
        rows = np.vstack([measure.to_centers(p[None, :], centers)[0]
                          for p in points])
        batched = measure.to_centers(points[:, None, :], centers)[:, 0]
        assert batched.tobytes() == rows.tobytes(), name
        mapper = KMeansMapper(centers, measure)
        assert mapper.distances(points).tobytes() == rows.tobytes(), name
        per_row = np.vstack([memberships(r[None, :], 2.0)[0] for r in rows])
        assert memberships(batched, 2.0).tobytes() == per_row.tobytes(), name
        if not np.array_equal(measure.to_centers(points, centers), rows):
            differs.add(name)
    # One (n, d) @ (d, k) matmul is not n (1, d) @ (d, k) products: its
    # last bits differ, which is why the mappers use the batch axis.
    assert differs & {"euclidean", "squared-euclidean", "cosine",
                      "tanimoto"}
    assert not differs & {"manhattan", "chebyshev"}


# --- (c) one kernel call per split -------------------------------------------

@pytest.mark.parametrize("n", [1, 5, 200])
@pytest.mark.parametrize("name", sorted(MEASURES))
def test_one_distance_call_per_split(name, n, monkeypatch):
    calls = []
    cls = MEASURES[name]
    monkeypatch.setattr(cls, "to_centers",
                        lambda self, p, c, inner=cls.to_centers:
                        calls.append(len(p)) or inner(self, p, c))
    records = [(i, (float(i), -float(i))) for i in range(n)]
    centers = [(0.0, 0.0), (5.0, -5.0), (50.0, 1.0)]
    for mapper, _oracle, _same in _mappers(centers, cls())[:3]:
        calls.clear()
        run_mapper(mapper, records, Context())
        assert calls == [n]


@pytest.mark.parametrize("n", [1, 5, 200])
def test_one_hash_evaluation_per_minhash_split(n, monkeypatch):
    calls = []
    monkeypatch.setattr(minhash, "signature",
                        lambda features, hashes, inner=signature:
                        calls.append(features.shape) or inner(features,
                                                               hashes))
    records = [(i, (float(i), -float(i), 0.5)) for i in range(n)]
    run_mapper(MinHashMapper(8, 2, 2.0, 7), records, Context())
    assert calls == [(n, 3)]
