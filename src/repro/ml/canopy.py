"""Canopy clustering (McCallum, Nigam & Ungar) as one MapReduce pass.

Mahout's ``CanopyDriver``: distance thresholds ``T1 > T2``.

* **mapper** — streams its split through the canopy rule: a point within
  ``T2`` of an existing local canopy center is *strongly bound* (absorbed);
  otherwise it founds a new canopy.  Points within ``T1`` contribute to a
  canopy's running centroid.  The mapper emits each local canopy centroid
  as a read-only float64 row;
* **reducer** — re-clusters all mapper centroids with the same rule,
  producing the final canopy centers.

Canopy is a single pass (the paper calls it "simple, fast and accurate")
and is typically used to seed k-Means.  An optional clusterdata pass
assigns each point to its closest canopy.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ClusteringError
from repro.mapreduce.api import Context, Reducer
from repro.mapreduce.job import Job
from repro.ml.base import (KERNELS, ClusterModel, ClusteringResult,
                           Executor, SplitMapper, read_only)
from repro.ml.kmeans import AssignMapper, _map_record_cost
from repro.ml.vectors import Centers, DistanceMeasure, EuclideanDistance


def canopy_pass(points: np.ndarray, t1: float, t2: float,
                measure: DistanceMeasure) -> list[tuple[np.ndarray, int]]:
    """The sequential canopy rule: [(centroid, n_contributors)].

    Centroids are running means of the points within ``T1`` of the canopy's
    founding point, returned as read-only float64 rows.  The founders only
    change when a point founds a canopy, so the pass runs in founder
    epochs: one batched ``to_centers`` call measures a window of points
    against the founders, the first with nothing within ``T2`` founds the
    next canopy, and the ``T1`` hits up to it fold into the running sums
    in point order: a sum starts from and a miss adds ``-0.0``, the exact
    additive identity (``np.add.reduce`` would start from ``+0.0``).
    The window doubles while no founder appears and restarts at one point
    after one does: never more calls than points.  Memoized on the
    points, the thresholds and the measure (``base.KERNELS``).
    """
    return _canopy_pass(np.asarray(points, dtype=float), t1, t2, measure)


@KERNELS.pure
def _canopy_pass(points: np.ndarray, t1: float, t2: float,
                 measure: DistanceMeasure) -> list[tuple[np.ndarray, int]]:
    # Canopies 0..k-1 live in preallocated rows, so one to_centers call
    # measures a window against every founder.
    founders = Centers(points[:0], capacity=len(points))
    sums = np.empty_like(points)
    counts = np.zeros(len(points), dtype=int)
    k, i, window = 0, 0, 1
    while i < len(points):
        ahead = points[i:i + window]
        dist = measure.to_centers(ahead[:, None], founders)[:, 0]
        absorbed = (dist < t2).any(axis=1)
        first = int(absorbed.argmin())  # 0 when every point is absorbed
        end = len(ahead) if absorbed[first] else first + 1
        within_t1 = dist[:end] < t1
        fold = np.where(within_t1[..., None], ahead[:end, None], -0.0)
        sums[:k] = np.add.reduce(np.concatenate((sums[None, :k], fold)),
                                 axis=0, initial=-0.0)
        counts[:k] += within_t1.sum(axis=0)
        i += end
        window *= 2
        if not absorbed[first]:
            founders.append(ahead[first])
            sums[k] = ahead[first]
            counts[k] = 1
            k += 1
            window = 1
    return list(zip(read_only(sums[:k] / counts[:k, None]),
                    counts[:k].tolist()))


class CanopyMapper(SplitMapper):
    """Local canopy formation over the split."""

    def __init__(self, t1: float, t2: float, measure: DistanceMeasure):
        self.t1, self.t2 = t1, t2
        self.measure = measure

    def map_split(self, keys, points, context: Context) -> None:
        for centroid, count in canopy_pass(points, self.t1, self.t2,
                                           self.measure):
            context.emit("centroid", (centroid, count))


class CanopyReducer(Reducer):
    """Re-cluster the mapper centroids into the final canopies."""

    def __init__(self, t1: float, t2: float, measure: DistanceMeasure):
        self.t1, self.t2 = t1, t2
        self.measure = measure

    def reduce(self, key, values, context: Context) -> None:
        centroids = [centroid for centroid, _count in values]
        finals = canopy_pass(np.asarray(centroids, dtype=float),
                             self.t1, self.t2, self.measure)
        for cid, (centroid, _n) in enumerate(finals):
            context.emit(cid, (tuple(centroid), float(_n)))


class CanopyDriver:
    """Single-pass canopy clustering driver."""

    def __init__(self, t1: float, t2: float,
                 measure: Optional[DistanceMeasure] = None):
        if not t1 > t2 > 0:
            raise ClusteringError(f"need T1 > T2 > 0, got T1={t1}, T2={t2}")
        self.t1, self.t2 = float(t1), float(t2)
        self.measure = measure or EuclideanDistance()

    def run(self, executor: Executor, input_path: str,
            work_prefix: str = "/canopy", assign: bool = False
            ) -> ClusteringResult:
        t1, t2, measure = self.t1, self.t2, self.measure
        job = Job(
            name="canopy",
            input_paths=[input_path],
            output_path=f"{work_prefix}/clusters",
            mapper=lambda: CanopyMapper(t1, t2, measure),
            reducer=lambda: CanopyReducer(t1, t2, measure),
            n_reduces=1,  # Mahout forces a single reducer for canopy
            intermediate_sizeof=lambda pair: 24 + 8 * len(pair[1][0]),
            output_sizeof=lambda pair: 24 + 8 * len(pair[1][0]),
            map_cpu_per_record=3.0e-5,
            reduce_cpu_per_record=3.0e-5,
        )
        output, elapsed = executor.run_job(job)
        models = [ClusterModel(int(cid), tuple(centroid), weight=w)
                  for cid, (centroid, w) in sorted(output)]
        result = ClusteringResult(algorithm="canopy", models=models,
                                  iterations=1, converged=True,
                                  runtime_s=elapsed,
                                  per_iteration_s=[elapsed],
                                  history=[list(models)])
        if assign and models:
            centers = [m.center for m in models]
            d = len(centers[0])
            assign_job = Job(
                name="canopy-assign",
                input_paths=[input_path],
                output_path=f"{work_prefix}/points",
                mapper=lambda: AssignMapper(centers, measure),
                n_reduces=0,
                output_sizeof=lambda _pair: 16,
                map_cpu_per_record=_map_record_cost(len(centers), d),
            )
            out, elapsed = executor.run_job(assign_job)
            result.runtime_s += elapsed
            result.assignments = {int(pid): int(cid) for pid, cid in out}
        return result
