"""Bit-identity of the hoisted clustering kernels.

Prepared centers, the sequential column fold and the batched MinHash
signature each replaced code that recomputed an invariant per call.  The
retired forms live on here as references: same inputs, same bits.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mapreduce.api import Context, run_reducer
from repro.ml.kmeans import CentroidReducer, PartialSumCombiner, fold_stats
from repro.ml.minhash import (_MERSENNE, discretize, make_hashes,
                              signature)
from repro.ml.vectors import MEASURES, Centers
from tests.ml.test_split_mappers import exact_stats


# --- the retired per-call measure bodies, verbatim ---------------------------

def _retired_to_centers(name, p, c):
    if name in ("euclidean", "squared-euclidean"):
        p2 = np.sum(p * p, axis=-1)[..., :, None]
        c2 = np.sum(c * c, axis=-1)[..., None, :]
        sq = p2 + c2 - 2.0 * (p @ c.swapaxes(-1, -2))
        return np.sqrt(np.maximum(sq, 0.0)) if name == "euclidean" else sq
    if name == "manhattan":
        return np.abs(p[..., :, None, :] - c[..., None, :, :]).sum(axis=-1)
    if name == "chebyshev":
        return np.abs(p[..., :, None, :] - c[..., None, :, :]).max(axis=-1)
    if name == "cosine":
        pn = np.linalg.norm(p, axis=-1)[..., :, None]
        cn = np.linalg.norm(c, axis=-1)[..., None, :]
        denominator = pn * cn
        sim = np.where(denominator > 0,
                       (p @ c.swapaxes(-1, -2)) / denominator, 0.0)
        return 1.0 - np.clip(sim, -1.0, 1.0)
    assert name == "tanimoto"
    dot = p @ c.swapaxes(-1, -2)
    p2 = np.sum(p * p, axis=-1)[..., :, None]
    c2 = np.sum(c * c, axis=-1)[..., None, :]
    denominator = p2 + c2 - dot
    sim = np.where(denominator > 0, dot / denominator, 1.0)
    return 1.0 - np.clip(sim, 0.0, 1.0)


def _same_bits(a, b) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# --- (a) prepared centers ------------------------------------------------------

# Any finite double: products overflow, norms vanish, cancellations go
# wrong in the last bits — whatever happens must happen identically.
_finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _center_history(draw):
    d = draw(st.integers(1, 8))
    row = st.lists(_finite, min_size=d, max_size=d)
    points = draw(st.lists(row, min_size=1, max_size=4))
    initial = draw(st.lists(row, min_size=1, max_size=6))
    # (append?, row index for a replacement, new row)
    ops = draw(st.lists(st.tuples(st.booleans(), st.integers(0, 63), row),
                        max_size=8))
    return np.asarray(points), initial, ops


@settings(max_examples=120, deadline=None)
@given(_center_history())
def test_prepared_centers_give_to_centers_bits(case):
    points, initial, ops = case
    with np.errstate(all="ignore"):
        _replay(points, initial, ops)


def _replay(points, initial, ops):
    for name, cls in MEASURES.items():
        measure = cls()
        rows = [list(r) for r in initial]
        fixed = Centers(np.asarray(rows))
        growing = Centers(np.asarray(rows), capacity=len(rows) + len(ops))

        def check(prepared):
            raw = np.asarray(rows)
            for p in (points[:1], points):   # one row, as the mappers; all
                want = _retired_to_centers(name, p, raw)
                assert _same_bits(measure.to_centers(p, raw), want)
                assert _same_bits(measure.to_centers(p, prepared), want)

        check(fixed)
        check(growing)        # every term is kept from here on
        for append, j, row in ops:
            if append:
                growing.append(row)
                rows.append(row)
            else:
                growing.replace(j % len(rows), row)
                rows[j % len(rows)] = row
            check(growing)


def test_growable_centers_start_empty_and_fill_their_buffer():
    centers = Centers(np.empty((0, 2)), capacity=3)
    measure = MEASURES["euclidean"]()
    assert measure.to_centers(np.zeros((1, 2)), centers).shape == (1, 0)
    for row in ([3.0, 4.0], [0.0, 1.0], [6.0, 8.0]):
        centers.append(row)
    centers.replace(1, [0.0, 2.0])
    assert centers.rows.tolist() == [[3.0, 4.0], [0.0, 2.0], [6.0, 8.0]]
    assert centers.sq.tolist() == [25.0, 4.0, 100.0]
    assert measure.to_centers([[0.0, 0.0]], centers).tolist() == \
        [[5.0, 2.0, 10.0]]
    with pytest.raises(AttributeError):
        centers.not_a_term


# --- (b) the sequential column fold --------------------------------------------

def _retired_fold(values):
    total = total_sq = None
    count = 0
    for vec, vec_sq, n in values:
        arr, arr_sq = np.asarray(vec), np.asarray(vec_sq)
        total = arr if total is None else total + arr
        total_sq = arr_sq if total_sq is None else total_sq + arr_sq
        count += n
    return total, total_sq, count


def _stats(x, weights, rows=False):
    """(x, x^2, w) triples, the vectors as tuples or as float64 rows."""
    return [(r, r * r, w) if rows else (tuple(r), tuple(r * r), w)
            for r, w in zip(x, weights)]


@pytest.mark.parametrize("n", [1, 2, 100, 1000])
def test_fold_is_the_per_value_loop_on_one_column(n):
    rng = np.random.default_rng(n)
    x = rng.normal(size=(n, 1)) * 10.0 ** rng.uniform(-6, 6, size=(n, 1))
    values = _stats(x, range(1, n + 1))
    got, want = fold_stats(values), _retired_fold(values)
    assert _same_bits(got[0], want[0]) and _same_bits(got[1], want[1])
    assert got[2] == want[2] == n * (n + 1) // 2
    if n >= 100:
        # A one-column stack is summed pairwise: the fold must not be.
        assert not _same_bits(x.sum(axis=0), want[0])
        assert not _same_bits((x * x).sum(axis=0), want[1])


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8), st.integers(1, 300), st.integers(0, 2**32 - 1),
       st.booleans(), st.booleans())
def test_fold_is_the_per_value_loop(d, n, seed, fractional, rows):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-6, 6, size=(n, d))
    weights = rng.random(n).tolist() if fractional else [1] * n
    values = _stats(x, weights, rows)
    got, want = fold_stats(values), _retired_fold(values)
    assert _same_bits(got[0], want[0]) and _same_bits(got[1], want[1])
    assert got[2] == want[2] and type(got[2]) is type(want[2])


@pytest.mark.parametrize("vecs, vec_sqs", [
    ([(1.0,), (2.0, 3.0, 4.0)], [(1.0,), (4.0, 9.0, 16.0)]),
    ([(1.0, 2.0), (3.0,), (4.0,)], [(1.0, 4.0), (9.0,), (16.0,)]),
    ([(1.0, 2.0), (3.0, 4.0)], [(1.0, 4.0), (9.0,)]),
    ([(1.0, 2.0), (3.0, 4.0)], [(1.0, 4.0, 0.0), (9.0, 16.0)]),
    ([(1.0, 2.0, 3.0), (4.0,)], [(1.0, 4.0, 9.0), (16.0,)]),
])
def test_fold_rejects_ragged_statistics(vecs, vec_sqs):
    # With d the first vector's length, several cases hold n*d coordinates
    # or more: a flat conversion that trusts n*d would truncate or reshape
    # them silently.
    with pytest.raises(ValueError, match="ragged"):
        fold_stats(list(zip(vecs, vec_sqs, [1] * len(vecs))))


@pytest.mark.parametrize("counts", [[1, 2, 3], [0.5, 1, 2.0],
                                    [np.int64(2), 3], [True, 1]])
def test_fold_keeps_the_type_of_the_count_loop(counts):
    values = [((1.0,), (1.0,), n) for n in counts]
    want = 0
    for n in counts:
        want += n
    count = fold_stats(values)[2]
    assert count == want and type(count) is type(want)


def test_combiner_then_reducer_emit_the_folded_statistics():
    x = np.random.default_rng(4).normal(size=(50, 3))
    values = _stats(x, [1] * 50)
    total, total_sq, count = _retired_fold(values)
    [(key, combined)] = run_reducer(PartialSumCombiner(), [(7, values)],
                                    Context())
    # The combiner's sums are read-only float64 rows with the fold's bits.
    assert key == 7 and exact_stats([(key, combined)]) == exact_stats(
        [(7, (tuple(total), tuple(total_sq), count))], emitted=False)
    [(_key, (center, weight, radius))] = run_reducer(
        CentroidReducer(), [(7, [combined])], Context())
    assert center == tuple(total / count) and weight == 50.0
    variance = np.maximum(total_sq / count - (total / count) ** 2, 0.0)
    assert radius == float(np.sqrt(variance.sum()))


# --- (c) MinHash ---------------------------------------------------------------

def _retired_discretize(vector, bucket):
    buckets = np.floor(np.asarray(vector, dtype=float) / bucket).astype(int)
    return [((dim * 2654435761) ^ (int(b) & 0xFFFFFFFF)) & 0x7FFFFFFF
            for dim, b in enumerate(buckets)]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-1e9, 1e9), min_size=1, max_size=8),
       st.floats(0.01, 100.0), st.integers(1, 16), st.integers(0, 2**32 - 1))
def test_minhash_signature_is_the_per_hash_loop(vector, bucket, num_hashes,
                                                seed):
    features = _retired_discretize(vector, bucket)
    assert discretize(vector, bucket).tolist() == features
    # The retired per-hash draws and loop, in exact Python integers.
    rng = np.random.default_rng(seed)
    hashes = [(int(rng.integers(1, _MERSENNE)), int(rng.integers(0, _MERSENNE)))
              for _ in range(num_hashes)]
    want = [min((a * f + b) % _MERSENNE for f in features)
            for a, b in hashes]
    got = signature(discretize(vector, bucket), make_hashes(num_hashes, seed))
    assert got == want


def test_minhash_signature_is_exact_at_the_int64_edge():
    # The largest feature and coefficients: a*x + b is just below 2**62.
    top = _MERSENNE - 1
    a, b = np.array([[top]]), np.array([[top]])
    features = np.array([0x7FFFFFFF, 1])
    assert signature(features, (a, b)) == \
        [min((top * f + top) % _MERSENNE for f in features.tolist())]
