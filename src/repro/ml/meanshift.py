"""Mean-shift canopy clustering as iterative MapReduce.

Mahout's ``MeanShiftCanopyDriver``: every input point starts as a canopy;
each iteration every canopy shifts to the weighted mean of the canopies
within ``T1`` of it, and canopies that come within ``T2`` of each other
merge.  The process repeats until every shift falls below
``convergence_delta`` or the iteration budget runs out — clusters of
arbitrary shape emerge without choosing k a priori.

Job layout per iteration (as in Mahout):

* **mapper** — receives the canopy set of its split, performs one local
  shift-and-merge pass, emits surviving canopies (centers as read-only
  float64 rows) keyed by a single reducer key;
* **reducer** — merges all mapper outputs with the same rule, emitting the
  next iteration's canopies and whether each converged.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ClusteringError
from repro.mapreduce.api import Context, Mapper, Reducer
from repro.mapreduce.job import Job
from repro.ml.base import (KERNELS, ClusterModel, ClusteringResult,
                           Executor, checked_delta, read_only)
from repro.ml.vectors import Centers, DistanceMeasure, EuclideanDistance


#: A neighbourhood block has about this many cells (1 MB of floats).
_BLOCK_CELLS = 1 << 17


def _row_blocks(n: int) -> list[tuple[int, int]]:
    """``[lo, hi)`` blocks of at least two rows covering ``0..n-1``: a lone
    row goes to gemv and changes the bits, so it joins the block before."""
    bounds = list(range(0, n, max(2, _BLOCK_CELLS // n)))
    if len(bounds) > 1 and n - bounds[-1] == 1:
        bounds.pop()
    return list(zip(bounds, bounds[1:] + [n]))


def shift_and_merge(canopies: list[tuple[np.ndarray, float]], t1: float,
                    t2: float, measure: DistanceMeasure,
                    delta: float) -> tuple[list[tuple[np.ndarray, float]], bool]:
    """One mean-shift pass: returns (new canopies, all_converged), the new
    centers as read-only float64 rows.

    The ``< T1`` neighbourhoods are measured in row blocks against one
    prepared :class:`Centers` (see ``vectors``); each mean sums its
    neighbours' weighted rows by an ordered gather, in a boolean-mask sum's
    order.  The T2 merge stays sequential: each step moves or adds a row.
    Memoized on the stacked centers and weights, the thresholds and the
    measure (``base.KERNELS``).
    """
    if not canopies:
        return [], True
    return _shift_and_merge(np.vstack([c for c, _w in canopies]),
                            np.asarray([w for _c, w in canopies], dtype=float),
                            t1, t2, measure, delta)


@KERNELS.pure
def _shift_and_merge(centers: np.ndarray, weights: np.ndarray, t1: float,
                     t2: float, measure: DistanceMeasure, delta: float
                     ) -> tuple[list[tuple[np.ndarray, float]], bool]:
    prepared = Centers(centers)
    weighted = centers * weights[:, None]
    means = np.empty_like(centers)
    for lo, hi in _row_blocks(len(centers)):
        within_t1 = measure.to_centers(centers[lo:hi], prepared) < t1
        for i, row in enumerate(within_t1, lo):
            idx = row.nonzero()[0]
            means[i] = (np.add.reduce(weighted.take(idx, axis=0), axis=0)
                        / np.add.reduce(weights.take(idx)))
    all_converged = not (measure.paired(means, centers) > delta).any()
    # Merge canopies within T2 (the earliest such canopy absorbs the later
    # one); merged canopies 0..m-1 live in preallocated rows.
    merged = Centers(centers[:0], capacity=len(centers))
    merged_w: list[float] = []
    for point, weight in zip(means[:, None], weights.tolist()):
        near = (measure.to_centers(point, merged)[0] < t2).nonzero()[0]
        if near.size:
            j = near[0]
            new_w = merged_w[j] + weight
            merged.replace(j, (merged.rows[j] * merged_w[j]
                               + point[0] * weight) / new_w)
            merged_w[j] = new_w
        else:
            merged.append(point)
            merged_w.append(weight)
    # A copy, so that a held result does not keep the n-row buffer alive.
    return list(zip(read_only(merged.rows.copy()), merged_w)), all_converged


class MeanShiftMapper(Mapper):
    def __init__(self, t1: float, t2: float, measure: DistanceMeasure,
                 delta: float):
        self.t1, self.t2, self.measure, self.delta = t1, t2, measure, delta
        self._canopies: list[tuple[np.ndarray, float]] = []

    def map(self, key, value, context: Context) -> None:
        # Accepts both the seeded (center, weight) and the reducer's
        # (center, weight, converged) record shapes.
        center, weight = value[0], value[1]
        self._canopies.append((np.asarray(center, dtype=float), float(weight)))

    def cleanup(self, context: Context) -> None:
        merged, converged = shift_and_merge(
            self._canopies, self.t1, self.t2, self.measure, self.delta)
        for center, weight in merged:
            context.emit("canopies", (center, weight, converged))
        self._canopies.clear()


class MeanShiftReducer(Reducer):
    def __init__(self, t1: float, t2: float, measure: DistanceMeasure,
                 delta: float):
        self.t1, self.t2, self.measure, self.delta = t1, t2, measure, delta

    def reduce(self, key, values, context: Context) -> None:
        canopies = []
        all_converged = True
        for center, weight, converged in values:
            canopies.append((np.asarray(center, dtype=float), float(weight)))
            all_converged = all_converged and converged
        merged, pass_converged = shift_and_merge(
            canopies, self.t1, self.t2, self.measure, self.delta)
        converged = all_converged and pass_converged
        for cid, (center, weight) in enumerate(merged):
            context.emit(cid, (tuple(center), weight, converged))


class MeanShiftDriver:
    """Iterative mean-shift canopy driver."""

    def __init__(self, t1: float, t2: float,
                 measure: Optional[DistanceMeasure] = None,
                 convergence_delta: float = 0.5, max_iterations: int = 10):
        if not t1 > t2 > 0:
            raise ClusteringError(f"need T1 > T2 > 0, got T1={t1}, T2={t2}")
        if max_iterations < 1:
            raise ClusteringError("max_iterations must be >= 1")
        self.t1, self.t2 = float(t1), float(t2)
        self.measure = measure or EuclideanDistance()
        self.convergence_delta = checked_delta("MeanShiftDriver",
                                               convergence_delta)
        self.max_iterations = max_iterations

    def run(self, executor: Executor, input_path: str,
            work_prefix: str = "/meanshift") -> ClusteringResult:
        t1, t2, measure = self.t1, self.t2, self.measure
        delta = self.convergence_delta
        result = ClusteringResult(algorithm="meanshift", models=[])

        # Initial canopies: every point, weight 1 — staged as a derived
        # dataset so each iteration is a normal MapReduce job.
        records = executor.input_records(input_path)
        canopy_records = [(int(pid), (vec, 1.0)) for pid, vec in records]
        current_path = f"{work_prefix}/state-0"
        self._stage(executor, current_path, canopy_records)

        for iteration in range(self.max_iterations):
            output_path = f"{work_prefix}/state-{iteration + 1}"
            job = Job(
                name="meanshift-iter",
                input_paths=[current_path],
                output_path=output_path,
                mapper=lambda: MeanShiftMapper(t1, t2, measure, delta),
                reducer=lambda: MeanShiftReducer(t1, t2, measure, delta),
                n_reduces=1,
                intermediate_sizeof=lambda pair: 32 + 8 * len(pair[1][0]),
                output_sizeof=lambda pair: 32 + 8 * len(pair[1][0]),
                map_cpu_per_record=6.0e-5,
                reduce_cpu_per_record=6.0e-5,
            )
            output, elapsed = executor.run_job(job)
            result.per_iteration_s.append(elapsed)
            result.runtime_s += elapsed
            result.iterations += 1

            models = [ClusterModel(int(cid), tuple(center), weight=w)
                      for cid, (center, w, _conv) in sorted(output)]
            result.history.append(models)
            converged = all(conv for _cid, (_c, _w, conv) in output)
            result.models = models
            if converged:
                result.converged = True
                break
            # The job output in HDFS is the next iteration's input.
            current_path = output_path
        return result

    @staticmethod
    def _stage(executor: Executor, path: str, records: list) -> None:
        """Make records readable as a job input on either executor."""
        from repro.ml.base import ClusterExecutor, LocalExecutor
        if isinstance(executor, LocalExecutor):
            executor.add_input(path, records)
        elif isinstance(executor, ClusterExecutor):
            cluster = executor.cluster
            if not cluster.namenode.exists(path):
                event = cluster.dfs.write_file(
                    cluster.master, path, records,
                    sizeof=lambda r: 32 + 8 * len(r[1][0]))
                cluster.sim.run_until(event)
        else:  # pragma: no cover - custom executors stage themselves
            raise ClusteringError(
                f"cannot stage records on {type(executor).__name__}")
