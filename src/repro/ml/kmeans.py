"""k-Means clustering as iterative MapReduce (Mahout's ``KMeansDriver``).

Per iteration one job runs:

* **mapper** — assign each point to the nearest current center; emit
  ``(cluster_id, (x, x^2, 1))`` for the point, ``x`` and ``x^2`` read-only
  float64 rows (the split's distances come from one call);
* **combiner** — component-wise sums of the partial statistics;
* **reducer** — new center = sum / count (plus weight and RMS radius from
  the second moment); empty clusters keep their previous center.

The driver loops until every center moves less than ``convergence_delta``
(Mahout default 0.5) under the chosen distance measure, or
``max_iterations`` is reached, then runs one map-only *clusterdata* pass
that emits the hard assignment of every point.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.mapreduce.api import Context, Reducer
from repro.mapreduce.job import Job
from repro.ml.base import (ClusteringResult, Executor, SplitMapper, centers_k,
                           checked_delta, read_only, run_centroid_loop)
from repro.ml.vectors import Centers, DistanceMeasure, EuclideanDistance

#: Per-record CPU cost of one distance evaluation row (k centers, d dims):
#: JVM-era deserialization + k*d flops.
def _map_record_cost(k: int, d: int) -> float:
    return 2.0e-5 + 1.2e-8 * k * d


class CentersMapper(SplitMapper):
    """A split mapper that measures its points against fixed centers."""

    def __init__(self, centers: Sequence[tuple], measure: DistanceMeasure):
        self.centers = Centers(np.asarray(centers, dtype=float))
        self.measure = measure

    def distances(self, points: np.ndarray) -> np.ndarray:
        """(n, d) -> (n, k) in one call, each point its own ``(1, d)``
        batch: the bits of n one-point calls (see ``repro.ml.vectors``)."""
        return self.measure.to_centers(points[:, None, :], self.centers)[:, 0]


class KMeansMapper(CentersMapper):
    """Nearest-center assignment; centers arrive via the job params."""

    def map_split(self, keys, points, context: Context) -> None:
        nearest = self.distances(points).argmin(axis=1).tolist()
        squares = read_only(points * points)
        for cid, point, point_sq in zip(nearest, points, squares):
            context.emit(cid, (point, point_sq, 1))


def fold_stats(values) -> tuple[np.ndarray, np.ndarray, float]:
    """Component-wise sums of (sum, sum_sq, count) triples.

    The vectors may be float64 rows or tuples; either way each column is
    stacked by one ``np.asarray`` and summed in value order, one addition
    per value: the bits of a left-to-right fold.  ``np.cumsum`` keeps that
    order for every width; ``sum(axis=0)`` does not (it sums a one-column
    stack pairwise).  The sums come back as fresh read-only rows.  Vectors
    of differing lengths raise ``ValueError``.
    """
    vecs, vec_sqs, counts = zip(*values)
    lengths = set(map(len, vecs)) | set(map(len, vec_sqs))
    if len(lengths) != 1:
        raise ValueError(f"ragged statistics: vector lengths "
                         f"{sorted(lengths)}")
    count = 0
    for c in counts:
        count += c
    return _column_fold(vecs), _column_fold(vec_sqs), count


def _column_fold(rows: tuple) -> np.ndarray:
    """Column sums of equal-length rows, folded in row order."""
    return read_only(np.cumsum(np.asarray(rows, dtype=float), axis=0)[-1])


class PartialSumCombiner(Reducer):
    """Component-wise sum of (sum, sum_sq, count) triples."""

    def reduce(self, key, values, context: Context) -> None:
        context.emit(key, fold_stats(values))


class CentroidReducer(Reducer):
    """(cluster_id, partial sums) -> (cluster_id, (center, weight, radius))."""

    def reduce(self, key, values, context: Context) -> None:
        total, total_sq, count = fold_stats(values)
        center = total / count
        # RMS radius from E[x^2] - center^2 per dimension.
        variance = np.maximum(total_sq / count - center * center, 0.0)
        radius = float(np.sqrt(variance.sum()))
        context.emit(key, (tuple(center), float(count), radius))


class AssignMapper(CentersMapper):
    """clusterdata pass: (point_id, vector) -> (point_id, cluster_id)."""

    def map_split(self, keys, points, context: Context) -> None:
        nearest = self.distances(points).argmin(axis=1).tolist()
        for key, cid in zip(keys, nearest):
            context.emit(int(key), cid)


def _stats_sizeof(pair) -> int:
    _cid, (vec, _vec_sq, _n) = pair if len(pair) == 2 else (None, pair)
    return 16 + 2 * 8 * len(vec) + 8


class KMeansDriver:
    """The iterative driver."""

    def __init__(self, k: Optional[int] = None,
                 initial_centers: Optional[Sequence[tuple]] = None,
                 measure: Optional[DistanceMeasure] = None,
                 convergence_delta: float = 0.5, max_iterations: int = 10,
                 n_reduces: int = 1):
        self.k = centers_k("KMeansDriver", k, initial_centers)
        self.initial_centers = initial_centers
        self.measure = measure or EuclideanDistance()
        self.convergence_delta = checked_delta("KMeansDriver",
                                               convergence_delta)
        self.max_iterations = max_iterations
        self.n_reduces = n_reduces

    # -- jobs --------------------------------------------------------------
    def _iteration_job(self, input_path: str, output_path: str,
                       centers: list[tuple], d: int) -> Job:
        measure = self.measure
        snapshot = [tuple(c) for c in centers]
        return Job(
            name="kmeans-iter",
            input_paths=[input_path],
            output_path=output_path,
            mapper=lambda: KMeansMapper(snapshot, measure),
            combiner=PartialSumCombiner,
            reducer=CentroidReducer,
            n_reduces=self.n_reduces,
            intermediate_sizeof=_stats_sizeof,
            output_sizeof=lambda pair: 24 + 8 * d,
            map_cpu_per_record=_map_record_cost(len(snapshot), d),
            reduce_cpu_per_record=1.0e-5,
        )

    def _assign_job(self, input_path: str, output_path: str,
                    centers: list[tuple], d: int) -> Job:
        measure = self.measure
        snapshot = [tuple(c) for c in centers]
        return Job(
            name="kmeans-assign",
            input_paths=[input_path],
            output_path=output_path,
            mapper=lambda: AssignMapper(snapshot, measure),
            n_reduces=0,
            output_sizeof=lambda _pair: 16,
            map_cpu_per_record=_map_record_cost(len(snapshot), d),
        )

    # -- main loop -----------------------------------------------------------
    def run(self, executor: Executor, input_path: str,
            work_prefix: str = "/kmeans", assign: bool = True
            ) -> ClusteringResult:
        result, centers = run_centroid_loop(
            self, "kmeans", executor, input_path,
            lambda iteration, centers: self._iteration_job(
                input_path, f"{work_prefix}/clusters-{iteration}", centers,
                len(centers[0])))
        if assign:
            job = self._assign_job(input_path, f"{work_prefix}/points",
                                   centers, len(centers[0]))
            output, elapsed = executor.run_job(job)
            result.runtime_s += elapsed
            result.assignments = {int(pid): int(cid) for pid, cid in output}
        return result
