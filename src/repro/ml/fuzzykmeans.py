"""Fuzzy k-Means (soft clustering) as iterative MapReduce.

Mahout's ``FuzzyKMeansDriver`` with fuzziness ``m > 1``: each point belongs
to every cluster with membership

    u_ij = 1 / sum_k (d_ij / d_ik)^(2 / (m - 1))

* **mapper** — emit ``(cluster_id, (u^m * x, u^m * x^2, u^m))`` for every
  cluster, the vectors read-only float64 rows (soft assignment — this is
  why Fuzzy k-Means shuffles k times the data of k-Means);
* **combiner/reducer** — weighted sums; new center = sum / weight.

Convergence as in k-Means: maximum center shift below the delta.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from repro.errors import ClusteringError
from repro.mapreduce.api import Context
from repro.mapreduce.job import Job
from repro.ml.base import (ClusteringResult, Executor, centers_k,
                           checked_delta, read_only, run_centroid_loop)
from repro.ml.kmeans import (CentersMapper, CentroidReducer,
                             PartialSumCombiner, _map_record_cost,
                             _stats_sizeof)
from repro.ml.vectors import DistanceMeasure, EuclideanDistance

_EPS = 1e-9


def memberships(distances: np.ndarray, m: float) -> np.ndarray:
    """(n, k) distances -> (n, k) fuzzy memberships (rows sum to 1)."""
    d = np.maximum(distances, _EPS)
    exponent = 2.0 / (m - 1.0)
    # u_ij = 1 / sum_k (d_ij/d_ik)^e ; handle exact-hit rows via _EPS floor.
    inv = d ** (-exponent)
    return inv / inv.sum(axis=1, keepdims=True)


class FuzzyKMeansMapper(CentersMapper):
    def __init__(self, centers: Sequence[tuple], measure: DistanceMeasure,
                 m: float):
        super().__init__(centers, measure)
        self.m = m

    def map_split(self, keys, points, context: Context) -> None:
        u = memberships(self.distances(points), self.m) ** self.m
        # Entry (i, cid) of each product is u[i, cid] * point i, element by
        # element.
        weighted = u[:, :, None]
        stats = zip(u.tolist(), read_only(weighted * points[:, None, :]),
                    read_only(weighted * (points * points)[:, None, :]))
        for ws, vecs, vec_sqs in stats:
            for cid, (w, vec, vec_sq) in enumerate(zip(ws, vecs, vec_sqs)):
                context.emit(cid, (vec, vec_sq, w))


class FuzzyKMeansDriver:
    """Iterative fuzzy k-means driver."""

    def __init__(self, k: Optional[int] = None,
                 initial_centers: Optional[Sequence[tuple]] = None,
                 measure: Optional[DistanceMeasure] = None,
                 m: float = 2.0, convergence_delta: float = 0.5,
                 max_iterations: int = 10, n_reduces: int = 1):
        if not (math.isfinite(m) and m > 1.0):
            raise ClusteringError(f"FuzzyKMeansDriver: fuzziness m must be "
                                  f"a finite number > 1, got {m}")
        self.k = centers_k("FuzzyKMeansDriver", k, initial_centers)
        self.initial_centers = initial_centers
        self.measure = measure or EuclideanDistance()
        self.m = float(m)
        self.convergence_delta = checked_delta("FuzzyKMeansDriver",
                                               convergence_delta)
        self.max_iterations = max_iterations
        self.n_reduces = n_reduces

    def run(self, executor: Executor, input_path: str,
            work_prefix: str = "/fuzzyk") -> ClusteringResult:
        measure, m = self.measure, self.m

        def iteration_job(iteration: int, centers: list[tuple]) -> Job:
            snapshot = [tuple(c) for c in centers]
            d = len(snapshot[0])
            return Job(
                name="fuzzykmeans-iter",
                input_paths=[input_path],
                output_path=f"{work_prefix}/clusters-{iteration}",
                mapper=lambda: FuzzyKMeansMapper(snapshot, measure, m),
                combiner=PartialSumCombiner,
                reducer=CentroidReducer,
                n_reduces=self.n_reduces,
                intermediate_sizeof=_stats_sizeof,
                output_sizeof=lambda pair: 24 + 8 * d,
                # k emissions per record: k times the map and shuffle cost.
                map_cpu_per_record=_map_record_cost(len(snapshot), d)
                * len(snapshot),
                reduce_cpu_per_record=1.0e-5,
            )

        return run_centroid_loop(self, "fuzzykmeans", executor, input_path,
                                 iteration_job)[0]
