"""Unit + property tests for the distance measures."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.ml.vectors import (ChebyshevDistance, CosineDistance,
                              EuclideanDistance, ManhattanDistance,
                              SquaredEuclideanDistance, TanimotoDistance)

ALL = [EuclideanDistance(), SquaredEuclideanDistance(), ManhattanDistance(),
       ChebyshevDistance(), CosineDistance(), TanimotoDistance()]


def test_known_euclidean():
    assert EuclideanDistance().distance([0, 0], [3, 4]) == pytest.approx(5.0)
    assert SquaredEuclideanDistance().distance([0, 0], [3, 4]) == \
        pytest.approx(25.0)


def test_known_manhattan_chebyshev():
    assert ManhattanDistance().distance([1, 2], [4, 6]) == pytest.approx(7.0)
    assert ChebyshevDistance().distance([1, 2], [4, 6]) == pytest.approx(4.0)


def test_known_cosine():
    assert CosineDistance().distance([1, 0], [0, 1]) == pytest.approx(1.0)
    assert CosineDistance().distance([2, 0], [5, 0]) == pytest.approx(0.0)
    assert CosineDistance().distance([1, 0], [-1, 0]) == pytest.approx(2.0)


def test_cosine_zero_vector_defined():
    assert CosineDistance().distance([0, 0], [1, 1]) == pytest.approx(1.0)


def test_known_tanimoto():
    # identical vectors -> similarity 1 -> distance 0
    assert TanimotoDistance().distance([1, 2], [1, 2]) == pytest.approx(0.0)
    # orthogonal -> similarity 0 -> distance 1
    assert TanimotoDistance().distance([1, 0], [0, 1]) == pytest.approx(1.0)


def test_to_centers_shape():
    points = np.random.default_rng(0).normal(size=(7, 3))
    centers = np.random.default_rng(1).normal(size=(4, 3))
    for measure in ALL:
        matrix = measure.to_centers(points, centers)
        assert matrix.shape == (7, 4)


def test_to_centers_matches_scalar():
    rng = np.random.default_rng(2)
    points = rng.normal(size=(5, 4))
    centers = rng.normal(size=(3, 4))
    for measure in ALL:
        matrix = measure.to_centers(points, centers)
        for i in range(5):
            for j in range(3):
                assert matrix[i, j] == pytest.approx(
                    measure.distance(points[i], centers[j]), abs=1e-9)


def test_paired_matches_scalar():
    rng = np.random.default_rng(0)
    a, b = rng.normal(size=(7, 4)), rng.normal(size=(7, 4))
    for measure in ALL:
        paired = measure.paired(a, b)
        assert paired.shape == (7,)
        for i in range(7):
            assert paired[i] == pytest.approx(measure.distance(a[i], b[i]))


_vec = arrays(np.float64, 4,
              elements=st.floats(-50, 50, allow_nan=False))


@settings(max_examples=60, deadline=None)
@given(_vec, _vec)
def test_property_symmetry_and_identity(a, b):
    for measure in ALL:
        d_ab = measure.distance(a, b)
        d_ba = measure.distance(b, a)
        assert d_ab == pytest.approx(d_ba, abs=1e-6)
        assert d_ab >= -1e-9
        if isinstance(measure, CosineDistance) and float((a * a).sum()) == 0.0:
            # cosine is undefined at (numerically) zero norm; our
            # convention returns distance 1 there.
            continue
        assert measure.distance(a, a) == pytest.approx(0.0, abs=1e-4)


@settings(max_examples=60, deadline=None)
@given(_vec, _vec, _vec)
def test_property_triangle_inequality_metrics(a, b, c):
    # Euclidean, Manhattan and Chebyshev are metrics.
    for measure in (EuclideanDistance(), ManhattanDistance(),
                    ChebyshevDistance()):
        ab = measure.distance(a, b)
        bc = measure.distance(b, c)
        ac = measure.distance(a, c)
        assert ac <= ab + bc + 1e-6
