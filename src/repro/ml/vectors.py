"""Distance measures (Mahout's ``DistanceMeasure`` hierarchy).

Each measure offers a scalar ``distance(a, b)``, a vectorized
``to_centers(points, centers)`` returning the full (n_points, n_centers)
distance matrix via NumPy broadcasting, and ``paired(a, b)`` for the n
row-wise distances.  No measure loops in Python.

``centers`` may be a :class:`Centers`: a center set whose point-independent
terms (squared norms, norms, the transpose) are computed once rather than
on every call, with the same bits.  The k-means, assign and fuzzy k-means
mappers prepare their centers once per task; canopy's founders and
mean-shift's merged set are growable ``Centers`` that recompute only the
changed row's terms.  Only center-side terms are hoisted: every matmul
keeps its per-call operand shapes, because one 2-D ``(n, d) @ (d, k)``
differs in the last bits from n ``(1, d) @ (d, k)`` calls, and those bits
feed the ``<``/``>`` tests and membership weights the models depend on.

A leading batch axis does not move them: ``to_centers(points[:, None, :],
centers)[:, 0]`` is n separate ``(1, d) @ (d, k)`` products, every
reduction stays per row, and so it returns the bits of n one-point calls.
The k-means, assign and fuzzy k-means mappers rely on this to measure a
whole split in one call (``kmeans.CentersMapper.distances``), and canopy
to run in founder epochs: between two founder appends the founders are
fixed, so one ``to_centers(points[i:i + w, None, :], founders)`` call
measures the next w points with the bits of w one-point calls.

Mean-shift measures its ``< T1`` neighbourhoods in row blocks,
``to_centers(rows[lo:hi], prepared)``, so no n x n float matrix is built.
Which bits a block gets is the BLAS's choice by shape.  With OpenBLAS on
x86-64, blocks of two or more rows give the bits of the one-call
``(n, d) @ (d, n)`` product at the experiments' sizes (1,000 x 2 and
1,800 x 60, as the full-size tests check), but a 1-row block goes to gemv
and does not, so a lone last row joins the block before it.  At some
other sizes (900 x 60, 999 x 2) up to 0.4% of the block distances differ
by an ulp; a model then changes only if a distance lies within it of T1.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

ArrayLike = "np.typing.ArrayLike"


def _as2d(x) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    return arr[None, :] if arr.ndim == 1 else arr


def _sq(x: np.ndarray) -> np.ndarray:
    """Squared norms along the last axis (``np.sum``'s own reduction)."""
    return np.add.reduce(x * x, axis=-1)


#: The per-center terms a measure may ask of a :class:`Centers`.  Each is
#: a reduction along the coordinate axis, which gives the same bits for
#: one row as for all rows at once; ``norm`` is what
#: ``np.linalg.norm(x, axis=-1)`` evaluates for real ``x``.
_TERMS = {
    "sq": _sq,
    "norm": lambda c: np.sqrt(_sq(c)),
}


class Centers:
    """A center set whose point-independent terms are computed once.

    Every measure's ``to_centers`` accepts one in place of a center array:
    ``rows``, the transpose ``T`` (a view, so matmuls see the operand
    strides they always saw) and the terms of ``_TERMS`` (``sq``,
    ``norm``), each evaluated on first use and then kept.  Built with a
    ``capacity``, rows 0..k-1 of a preallocated buffer are live, and
    :meth:`append` / :meth:`replace` recompute only the changed row's
    terms.  Without one, ``rows`` is the given array (leading batch axes
    allowed) and the set is fixed.
    """

    def __init__(self, rows, capacity: Optional[int] = None):
        rows = _as2d(rows)
        self._kept: dict[str, np.ndarray] = {}
        if capacity is None:
            self._buf = None
            self.rows, self.T = rows, rows.swapaxes(-1, -2)
        else:
            self._buf = np.empty((capacity, rows.shape[-1]))
            self._buf[:len(rows)] = rows
            self._live(len(rows))

    @classmethod
    def of(cls, centers) -> "Centers":
        return centers if isinstance(centers, Centers) else cls(centers)

    def __getattr__(self, name: str) -> np.ndarray:
        # Only reached on a term's first use; later reads are plain hits.
        try:
            term = _TERMS[name]
        except KeyError:
            raise AttributeError(name) from None
        value = term(self.rows)
        if self._buf is not None:
            kept = self._kept[name] = np.empty(len(self._buf))
            kept[:len(value)] = value
            value = kept[:len(value)]
        setattr(self, name, value)
        return value

    def append(self, row) -> None:
        k = len(self.rows)
        self.replace(k, row)
        self._live(k + 1)

    def replace(self, j: int, row) -> None:
        self._buf[j] = row
        one = self._buf[j:j + 1]
        for name, kept in self._kept.items():
            kept[j] = _TERMS[name](one)[0]

    def _live(self, k: int) -> None:
        self.rows = self._buf[:k]
        self.T = self.rows.swapaxes(-1, -2)
        for name, kept in self._kept.items():
            setattr(self, name, kept[:k])


def _squared_euclidean(p: np.ndarray, c: Centers) -> np.ndarray:
    # ||p||^2 + ||c||^2 - 2 p.c  (no (n, k, d) intermediate)
    return _sq(p)[..., :, None] + c.sq[..., None, :] - 2.0 * (p @ c.T)


class DistanceMeasure:
    """Base class; subclasses implement :meth:`to_centers`."""

    name = "abstract"

    def distance(self, a, b) -> float:
        return float(self.to_centers(_as2d(a), _as2d(b))[0, 0])

    def to_centers(self, points, centers) -> np.ndarray:
        """(n, d) x (k, d) -> (n, k) distances (leading axes are batches);
        ``centers`` is an array or a :class:`Centers`."""
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
            _squared_euclidean(_as2d(points), Centers.of(centers)), 0.0))


class SquaredEuclideanDistance(DistanceMeasure):
    name = "squared-euclidean"

    def to_centers(self, points, centers) -> np.ndarray:
        return _squared_euclidean(_as2d(points), Centers.of(centers))


class ManhattanDistance(DistanceMeasure):
    name = "manhattan"

    def to_centers(self, points, centers) -> np.ndarray:
        p, c = _as2d(points), Centers.of(centers).rows
        return np.abs(p[..., :, None, :] - c[..., None, :, :]).sum(axis=-1)


class ChebyshevDistance(DistanceMeasure):
    name = "chebyshev"

    def to_centers(self, points, centers) -> np.ndarray:
        p, c = _as2d(points), Centers.of(centers).rows
        return np.abs(p[..., :, None, :] - c[..., None, :, :]).max(axis=-1)


class CosineDistance(DistanceMeasure):
    """1 - cosine similarity; zero vectors are at distance 1 from all."""

    name = "cosine"

    def to_centers(self, points, centers) -> np.ndarray:
        p, c = _as2d(points), Centers.of(centers)
        denominator = np.sqrt(_sq(p))[..., :, None] * c.norm[..., None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            sim = np.where(denominator > 0, (p @ c.T) / denominator, 0.0)
        return 1.0 - np.clip(sim, -1.0, 1.0)


class TanimotoDistance(DistanceMeasure):
    """1 - (a.b) / (|a|^2 + |b|^2 - a.b)  (Mahout's TanimotoDistanceMeasure)."""

    name = "tanimoto"

    def to_centers(self, points, centers) -> np.ndarray:
        p, c = _as2d(points), Centers.of(centers)
        dot = p @ c.T
        denominator = _sq(p)[..., :, None] + c.sq[..., None, :] - dot
        with np.errstate(divide="ignore", invalid="ignore"):
            sim = np.where(denominator > 0, dot / denominator, 1.0)
        return 1.0 - np.clip(sim, 0.0, 1.0)


MEASURES = {cls.name: cls for cls in (
    EuclideanDistance, SquaredEuclideanDistance, ManhattanDistance,
    ChebyshevDistance, CosineDistance, TanimotoDistance)}
