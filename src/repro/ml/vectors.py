"""Distance measures (Mahout's ``DistanceMeasure`` hierarchy).

Each measure offers a scalar ``distance(a, b)``, a vectorized
``to_centers(points, centers)`` returning the full (n_points, n_centers)
distance matrix via NumPy broadcasting, and ``paired(a, b)`` for the n
row-wise distances.  No measure loops in Python; what remains is per-call
overhead, which callers amortise where the result allows: canopy and the
mean-shift merge measure each point against every live canopy in one
``to_centers`` call, mean-shift checks convergence with one ``paired``
pass, the Dirichlet mapper scores its split once per model — all of which
feed only ``<``/``>`` tests or a sampled index.  ``KMeansMapper`` /
``AssignMapper`` (one call per point already) and ``FuzzyKMeansMapper``
stay per-record: fuzzy distances feed the membership weights, so batching
a split would move the models' last bits.
"""

from __future__ import annotations

import numpy as np

ArrayLike = "np.typing.ArrayLike"


def _as2d(x) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    return arr[None, :] if arr.ndim == 1 else arr


def _squared_euclidean(p: np.ndarray, c: np.ndarray) -> np.ndarray:
    # ||p||^2 + ||c||^2 - 2 p.c  (no (n, k, d) intermediate)
    p2 = np.sum(p * p, axis=-1)[..., :, None]
    c2 = np.sum(c * c, axis=-1)[..., None, :]
    return p2 + c2 - 2.0 * (p @ c.swapaxes(-1, -2))


class DistanceMeasure:
    """Base class; subclasses implement :meth:`to_centers`."""

    name = "abstract"

    def distance(self, a, b) -> float:
        return float(self.to_centers(_as2d(a), _as2d(b))[0, 0])

    def to_centers(self, points, centers) -> np.ndarray:
        """(n, d) x (k, d) -> (n, k) distances (leading axes are batches)."""
        raise NotImplementedError

    def paired(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """(n, d), (n, d) -> (n,) row-wise distances, as n 1x1 batches."""
        return self.to_centers(a[:, None, :], b[:, None, :])[:, 0, 0]

    def __repr__(self) -> str:  # pragma: no cover
        return f"<{type(self).__name__}>"


class EuclideanDistance(DistanceMeasure):
    name = "euclidean"

    def to_centers(self, points, centers) -> np.ndarray:
        return np.sqrt(np.maximum(
            _squared_euclidean(_as2d(points), _as2d(centers)), 0.0))


class SquaredEuclideanDistance(DistanceMeasure):
    name = "squared-euclidean"

    def to_centers(self, points, centers) -> np.ndarray:
        return _squared_euclidean(_as2d(points), _as2d(centers))


class ManhattanDistance(DistanceMeasure):
    name = "manhattan"

    def to_centers(self, points, centers) -> np.ndarray:
        p, c = _as2d(points), _as2d(centers)
        return np.abs(p[..., :, None, :] - c[..., None, :, :]).sum(axis=-1)


class ChebyshevDistance(DistanceMeasure):
    name = "chebyshev"

    def to_centers(self, points, centers) -> np.ndarray:
        p, c = _as2d(points), _as2d(centers)
        return np.abs(p[..., :, None, :] - c[..., None, :, :]).max(axis=-1)


class CosineDistance(DistanceMeasure):
    """1 - cosine similarity; zero vectors are at distance 1 from all."""

    name = "cosine"

    def to_centers(self, points, centers) -> np.ndarray:
        p, c = _as2d(points), _as2d(centers)
        pn = np.linalg.norm(p, axis=-1)[..., :, None]
        cn = np.linalg.norm(c, axis=-1)[..., None, :]
        denominator = pn * cn
        with np.errstate(divide="ignore", invalid="ignore"):
            sim = np.where(denominator > 0,
                           (p @ c.swapaxes(-1, -2)) / denominator, 0.0)
        return 1.0 - np.clip(sim, -1.0, 1.0)


class TanimotoDistance(DistanceMeasure):
    """1 - (a.b) / (|a|^2 + |b|^2 - a.b)  (Mahout's TanimotoDistanceMeasure)."""

    name = "tanimoto"

    def to_centers(self, points, centers) -> np.ndarray:
        p, c = _as2d(points), _as2d(centers)
        dot = p @ c.swapaxes(-1, -2)
        p2 = np.sum(p * p, axis=-1)[..., :, None]
        c2 = np.sum(c * c, axis=-1)[..., None, :]
        denominator = p2 + c2 - dot
        with np.errstate(divide="ignore", invalid="ignore"):
            sim = np.where(denominator > 0, dot / denominator, 1.0)
        return 1.0 - np.clip(sim, 0.0, 1.0)


MEASURES = {cls.name: cls for cls in (
    EuclideanDistance, SquaredEuclideanDistance, ManhattanDistance,
    ChebyshevDistance, CosineDistance, TanimotoDistance)}


def measure_by_name(name: str) -> DistanceMeasure:
    try:
        return MEASURES[name]()
    except KeyError:
        raise ValueError(f"unknown distance measure {name!r}; "
                         f"known: {sorted(MEASURES)}") from None
