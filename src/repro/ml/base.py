"""Shared infrastructure of the clustering drivers.

* :class:`ClusterModel` — one cluster (id, center, weight, radius) plus the
  per-iteration history that Fig. 8's visualization overlays;
* :class:`ClusteringResult` — what every driver returns: final models,
  optional point assignments, per-iteration runtimes, total runtime;
* :class:`SplitMapper` — the base of every mapper that computes its whole
  split in one pass;
* executors — a driver talks to an abstract *executor*:

  - :class:`ClusterExecutor` runs each iteration as a real MapReduce job on
    a :class:`~repro.platform.cluster.HadoopVirtualCluster` (simulated time
    accumulates);
  - :class:`LocalExecutor` runs the same jobs through
    :class:`~repro.mapreduce.local.LocalJobRunner` (no time, pure math) —
    used by unit tests and by the equivalence properties.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, TYPE_CHECKING

import numpy as np

from repro.errors import ClusteringError
from repro.mapreduce.api import Context, Mapper
from repro.mapreduce.job import Job
from repro.mapreduce.local import LocalJobRunner
from repro.memo import Memo
from repro.sim.rng import RngRegistry

if TYPE_CHECKING:  # pragma: no cover
    from repro.mapreduce.runner import JobReport, MapReduceRunner
    from repro.platform.cluster import HadoopVirtualCluster


# -- data plumbing -----------------------------------------------------------

def read_only(array: np.ndarray) -> np.ndarray:
    """``array``, marked read-only: its rows are emitted as records."""
    array.flags.writeable = False
    return array


#: The canopy and mean-shift passes, memoized on their inputs' content
#: (:mod:`repro.memo`): a scale sweep stages one dataset on every cluster
#: size, so each size's jobs repeat the same passes, and identity keys
#: cannot see that (every size builds its own records and measure).  The
#: bound holds every distinct pass of one size's runs.
KERNELS = Memo(32)


def points_as_records(points: np.ndarray) -> list[tuple[int, np.ndarray]]:
    """(N, d) array -> [(point_id, row)]: the HDFS input records.

    Each row is a read-only float64 view of a private copy of ``points``,
    so a caller that changes its array afterwards changes no staged point,
    and a :class:`SplitMapper` stacks its split without converting element
    by element.  Every coordinate must be finite: a NaN or infinite point
    would be assigned somewhere and poison that cluster's center.
    """
    arr = np.array(points, dtype=float)
    if arr.ndim != 2:
        raise ClusteringError(f"points must be 2-D, got shape {arr.shape}")
    bad = ~np.isfinite(arr).all(axis=1)
    if bad.any():
        row = int(bad.argmax())
        raise ClusteringError(f"point {row} has a non-finite coordinate: "
                              f"{arr[row].tolist()}")
    return list(enumerate(read_only(arr)))


def vector_sizeof(record) -> int:
    """Serialized size of one (id, vector) record (Mahout VectorWritable)."""
    _key, vec = record
    return 16 + 8 * len(vec)


class SplitMapper(Mapper):
    """A mapper that computes its whole split at once.

    ``map`` only buffers the split's records; ``cleanup`` hands them to
    :meth:`map_split` as the list of keys and one read-only ``(n, d)``
    float64 array of the values (staged rows and tuples alike are stacked
    by one ``np.asarray``), so the split can cost one NumPy call per
    kernel instead of one per record.  An empty split emits nothing.

    The statistics a clustering mapper emits are rows of that array or of
    its products, marked read-only: intermediate records travel as
    float64 arrays, and only reducers turn them into the tuples of a job's
    output.
    """

    def setup(self, context: Context) -> None:
        self._keys: list = []
        self._values: list = []

    def map(self, key, value, context: Context) -> None:
        self._keys.append(key)
        self._values.append(value)

    def cleanup(self, context: Context) -> None:
        if self._keys:
            points = read_only(np.asarray(self._values, dtype=float))
            self.map_split(self._keys, points, context)

    def map_split(self, keys: list, points: np.ndarray,
                  context: Context) -> None:
        raise NotImplementedError


# -- models --------------------------------------------------------------------

@dataclass
class ClusterModel:
    """One cluster: identity, center, and summary statistics."""

    cluster_id: int
    center: tuple
    weight: float = 0.0          # number of points (possibly fractional)
    radius: float = 0.0          # RMS distance of members to the center


@dataclass
class ClusteringResult:
    """Output of one driver run."""

    algorithm: str
    models: list[ClusterModel]
    #: point_id -> cluster_id (hard assignment), if the driver produced one.
    assignments: dict[int, int] = field(default_factory=dict)
    #: models after each iteration (for Fig. 8's overlay).
    history: list[list[ClusterModel]] = field(default_factory=list)
    iterations: int = 0
    converged: bool = False
    #: Simulated seconds (0 for LocalExecutor runs).
    runtime_s: float = 0.0
    per_iteration_s: list[float] = field(default_factory=list)

    @property
    def k(self) -> int:
        return len(self.models)


# -- executors ---------------------------------------------------------------

class Executor:
    """What a clustering driver needs from the world."""

    def run_job(self, job: Job) -> tuple[list, float]:
        """Execute the job; return (output_pairs, elapsed_seconds)."""
        raise NotImplementedError

    def input_records(self, path: str) -> list:
        raise NotImplementedError

    def rng(self, name: str) -> np.random.Generator:
        raise NotImplementedError


class ClusterExecutor(Executor):
    """Runs driver jobs on a hadoop virtual cluster (simulated time)."""

    def __init__(self, runner: "MapReduceRunner",
                 cluster: "HadoopVirtualCluster"):
        self.runner = runner
        self.cluster = cluster
        self.reports: list["JobReport"] = []

    def run_job(self, job: Job) -> tuple[list, float]:
        report = self.runner.run_to_completion(job)
        self.reports.append(report)
        return self.runner.read_output(report), report.elapsed

    def input_records(self, path: str) -> list:
        return list(self.cluster.dfs.peek_records(path))

    def rng(self, name: str) -> np.random.Generator:
        return self.cluster.datacenter.rng.stream(name)


class LocalExecutor(Executor):
    """Runs driver jobs functionally over in-memory records."""

    def __init__(self, inputs: Optional[dict[str, Sequence]] = None,
                 seed: int = 0):
        self.inputs: dict[str, list] = {k: list(v)
                                        for k, v in (inputs or {}).items()}
        self.outputs: dict[str, list] = {}
        self._rng = RngRegistry(seed)

    def add_input(self, path: str, records: Sequence) -> None:
        self.inputs[path] = list(records)

    def run_job(self, job: Job) -> tuple[list, float]:
        records: list = []
        for path in job.input_paths:
            try:
                records.extend(self.inputs[path])
            except KeyError:
                try:
                    records.extend(self.outputs[path])
                except KeyError:
                    raise ClusteringError(
                        f"LocalExecutor: no input staged at {path!r}") from None
        output = LocalJobRunner().run(job, records)
        self.outputs[job.output_path] = list(output)
        return output, 0.0

    def input_records(self, path: str) -> list:
        if path in self.inputs:
            return list(self.inputs[path])
        return list(self.outputs[path])

    def rng(self, name: str) -> np.random.Generator:
        return self._rng.stream(name)


# -- shared helpers -----------------------------------------------------------

def centers_k(driver: str, k: Optional[int],
              initial_centers: Optional[Sequence[tuple]]) -> int:
    """The cluster count of a k-Means-style driver, checked at construction.

    Either ``k >= 1`` or a non-empty list of equal-length, non-empty
    ``initial_centers`` (and then ``k``, if given, must be its length).
    """
    if initial_centers is None:
        if k is None or k < 1:
            raise ClusteringError(f"{driver} needs k or initial_centers")
        return k
    dims = {len(c) for c in initial_centers}
    if not dims or 0 in dims:
        raise ClusteringError(f"{driver}: initial_centers must be non-empty "
                              f"vectors, got {list(initial_centers)!r}")
    if len(dims) > 1:
        raise ClusteringError(f"{driver}: initial_centers have mixed "
                              f"dimensions {sorted(dims)}")
    if k is not None and k != len(initial_centers):
        raise ClusteringError(f"{driver}: k={k} but {len(initial_centers)} "
                              f"initial_centers")
    return len(initial_centers)


def checked_delta(driver: str, delta: float) -> float:
    """An iterative driver's ``convergence_delta``, checked at construction:
    a finite shift ``>= 0`` (with NaN mean-shift stops after one pass and
    k-means never stops early; a negative one never converges)."""
    if not (math.isfinite(delta) and delta >= 0):
        raise ClusteringError(f"{driver}: convergence_delta must be a finite "
                              f"shift >= 0, got {delta}")
    return float(delta)


def run_centroid_loop(driver, algorithm: str, executor: Executor,
                      input_path: str,
                      iteration_job: Callable[[int, list[tuple]], Job]
                      ) -> tuple[ClusteringResult, list[tuple]]:
    """The driver loop k-Means and Fuzzy k-Means share.

    Seeds ``driver.k`` centers — ``driver.initial_centers``, else random
    distinct input points (Mahout's RandomSeedGenerator) from the stream
    ``ml/<algorithm>/seed`` — then runs ``iteration_job(iteration,
    centers)``, whose output is ``(cluster_id, (center, weight, radius))``
    pairs, until no center moves more than ``driver.convergence_delta``
    under ``driver.measure`` or ``driver.max_iterations`` is reached; a
    cluster absent from an iteration's output keeps its center.  Returns
    the result (models, history and timings filled in) and the final
    centers.  Initial centers whose dimension differs from the first input
    record's fail here, before any job runs.
    """
    records = executor.input_records(input_path)
    if driver.initial_centers is not None:
        centers = [tuple(c) for c in driver.initial_centers]
        if records and len(records[0][1]) != len(centers[0]):
            raise ClusteringError(
                f"initial centers have {len(centers[0])} dimensions, the "
                f"input records {len(records[0][1])}")
    else:
        if len(records) < driver.k:
            raise ClusteringError(
                f"k={driver.k} exceeds the {len(records)} input points")
        rng = executor.rng(f"ml/{algorithm}/seed")
        chosen = rng.choice(len(records), size=driver.k, replace=False)
        centers = [tuple(records[int(i)][1]) for i in chosen]
    result = ClusteringResult(algorithm=algorithm, models=[])
    stats: dict[int, tuple] = {}
    for iteration in range(driver.max_iterations):
        output, elapsed = executor.run_job(iteration_job(iteration, centers))
        result.per_iteration_s.append(elapsed)
        result.runtime_s += elapsed
        result.iterations += 1

        new_centers = list(centers)
        stats = {}
        for cid, (center, weight, radius) in output:
            new_centers[cid] = tuple(center)
            stats[cid] = (weight, radius)
        result.history.append([
            ClusterModel(cid, tuple(c), *stats.get(cid, (0.0, 0.0)))
            for cid, c in enumerate(new_centers)])
        shift = max(
            driver.measure.distance(np.asarray(old), np.asarray(new))
            for old, new in zip(centers, new_centers))
        centers = new_centers
        if shift <= driver.convergence_delta:
            result.converged = True
            break

    result.models = [
        ClusterModel(cid, tuple(c), *stats.get(cid, (0.0, 0.0)))
        for cid, c in enumerate(centers)]
    return result, centers


def stage_points(platform, cluster, path: str, points: np.ndarray,
                 timed: bool = False) -> None:
    """Upload a point matrix to a cluster's HDFS as (id, vector) records."""
    platform.upload(cluster, path, points_as_records(points),
                    sizeof=vector_sizeof, timed=timed)
