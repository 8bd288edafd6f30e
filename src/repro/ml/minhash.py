"""MinHash clustering (probabilistic dimension reduction / LSH).

Mahout's ``MinHashDriver``: hash every item with multiple independent hash
functions such that similar items collide with high probability, then group
by banded hash signatures.

For continuous vectors (the paper applies MinHash to the same point sets as
the other five algorithms), the vector is first discretized into the set of
``(dimension, bucket)`` features that are "on"; the MinHash signature is
computed over that feature set, exactly how Mahout's example pipeline
vectorizes numeric data.

* **mapper** — compute ``num_hashes`` min-hashes (one exact int64
  evaluation for the whole split), group them into bands of
  ``key_groups`` values, emit ``(band_signature, point_id)``;
* **reducer** — every signature bucket with at least ``min_cluster_size``
  members becomes a cluster; emit ``(cluster_label, point_id)``.

Single pass, no iteration — MinHash trades accuracy for one cheap job.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import ClusteringError
from repro.mapreduce.api import Context, Reducer
from repro.mapreduce.job import Job
from repro.ml.base import (ClusterModel, ClusteringResult, Executor,
                           SplitMapper)

_MERSENNE = (1 << 31) - 1


def discretize(vectors: np.ndarray, bucket: float) -> np.ndarray:
    """Vector ``(d,)`` or matrix ``(n, d)`` -> int64 feature ids of the
    same shape ((dim, floor(x/bucket)) pairs hashed)."""
    buckets = np.floor(np.asarray(vectors, dtype=float) / bucket).astype(int)
    dims = np.arange(buckets.shape[-1], dtype=np.int64) * 2654435761
    return (dims ^ (buckets & 0xFFFFFFFF)) & 0x7FFFFFFF


def make_hashes(num_hashes: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The universal family h_i(x) = (a_i*x + b_i) mod p as (a, b) columns.

    Features and p are below 2**31, so every a*x + b stays below 2**63:
    int64 arithmetic is exact.
    """
    rng = np.random.default_rng(seed)
    draws = [(int(rng.integers(1, _MERSENNE)), int(rng.integers(0, _MERSENNE)))
             for _ in range(num_hashes)]
    a, b = np.asarray(draws, dtype=np.int64).reshape(num_hashes, 2).T
    return a[:, None], b[:, None]


def signature(features: np.ndarray, hashes: tuple[np.ndarray, np.ndarray]
              ) -> list:
    """Min-hash of a feature set ``(d,)`` under every hash function at
    once, or of every row of ``(n, d)``: one list of ints per row."""
    a, b = hashes
    return ((a * features[..., None, :] + b) % _MERSENNE).min(axis=-1).tolist()


class MinHashMapper(SplitMapper):
    def __init__(self, num_hashes: int, key_groups: int, bucket: float,
                 seed: int):
        self.hashes = make_hashes(num_hashes, seed)
        self.key_groups = key_groups
        self.bucket = bucket

    def map_split(self, keys, points, context: Context) -> None:
        signatures = signature(discretize(points, self.bucket), self.hashes)
        group = max(1, self.key_groups)
        for key, sig in zip(keys, signatures):
            pid = int(key)
            for band_start in range(0, len(sig), group):
                band = sig[band_start:band_start + group]
                band_key = f"b{band_start}-" + "-".join(map(str, band))
                context.emit(band_key, pid)


class MinHashReducer(Reducer):
    def __init__(self, min_cluster_size: int):
        self.min_cluster_size = min_cluster_size

    def reduce(self, key, values, context: Context) -> None:
        members = sorted(set(values))
        if len(members) >= self.min_cluster_size:
            for pid in members:
                context.emit(key, pid)


class MinHashDriver:
    """Single-pass MinHash clustering driver."""

    def __init__(self, num_hashes: int = 10, key_groups: int = 2,
                 min_cluster_size: int = 4, bucket: float = 1.0,
                 seed: int = 7, n_reduces: int = 1):
        if num_hashes < 1 or key_groups < 1:
            raise ClusteringError("num_hashes and key_groups must be >= 1")
        if min_cluster_size < 1:
            raise ClusteringError("min_cluster_size must be >= 1")
        if not (math.isfinite(bucket) and bucket > 0):
            raise ClusteringError(
                f"bucket must be a finite width > 0, got {bucket}")
        self.num_hashes = num_hashes
        self.key_groups = key_groups
        self.min_cluster_size = min_cluster_size
        self.bucket = float(bucket)
        self.seed = seed
        self.n_reduces = n_reduces

    def run(self, executor: Executor, input_path: str,
            work_prefix: str = "/minhash") -> ClusteringResult:
        num_hashes, key_groups = self.num_hashes, self.key_groups
        bucket, seed = self.bucket, self.seed
        job = Job(
            name="minhash",
            input_paths=[input_path],
            output_path=f"{work_prefix}/clusters",
            mapper=lambda: MinHashMapper(num_hashes, key_groups, bucket, seed),
            reducer=lambda: MinHashReducer(self.min_cluster_size),
            n_reduces=self.n_reduces,
            intermediate_sizeof=lambda pair: len(str(pair[0])) + 12,
            output_sizeof=lambda pair: len(str(pair[0])) + 12,
            map_cpu_per_record=2.0e-5 + 3.0e-7 * num_hashes,
            reduce_cpu_per_record=5.0e-6,
        )
        output, elapsed = executor.run_job(job)

        # Materialize clusters; a point may appear in several bands — keep
        # its first (deterministic: sorted band keys).
        records = {int(pid): vec for pid, vec in
                   executor.input_records(input_path)}
        by_band: dict[str, list[int]] = {}
        for band_key, pid in output:
            by_band.setdefault(band_key, []).append(int(pid))
        assignments: dict[int, int] = {}
        models: list[ClusterModel] = []
        for band_key in sorted(by_band):
            members = [pid for pid in by_band[band_key]
                       if pid not in assignments]
            if len(members) < self.min_cluster_size:
                continue
            cid = len(models)
            pts = np.asarray([records[pid] for pid in members], dtype=float)
            center = pts.mean(axis=0)
            radius = float(np.sqrt(
                ((pts - center) ** 2).sum(axis=1).mean()))
            models.append(ClusterModel(cid, tuple(center),
                                       weight=float(len(members)),
                                       radius=radius))
            for pid in members:
                assignments[pid] = cid
        return ClusteringResult(
            algorithm="minhash", models=models, assignments=assignments,
            iterations=1, converged=True, runtime_s=elapsed,
            per_iteration_s=[elapsed], history=[list(models)])
