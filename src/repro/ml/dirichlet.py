"""Dirichlet Process clustering (Bayesian mixture modelling) as MapReduce.

Mahout's ``DirichletDriver`` performs mean-field/Gibbs iterations over a
truncated Dirichlet Process mixture of Gaussians:

* the state is ``K`` candidate models (isotropic Normals) plus mixture
  weights drawn from ``Dirichlet(alpha_0 / K + counts)``;
* **mapper** — for each point, compute the posterior responsibility of
  every model (``weight_k * pdf_k(x)``) and *sample* an assignment from it;
  emit ``(model_id, (x, x^2, 1))``, ``x`` and ``x^2`` read-only float64
  rows;
* **reducer** — recompute each model's posterior parameters (mean, sigma)
  from its assigned points;
* **driver** — resample the mixture weights, iterate a fixed number of
  times (Mahout default 10), and report the significant models.

The per-iteration sampling makes this the only stochastic algorithm of the
six; all randomness flows through named RNG streams, so runs are
reproducible.
"""

from __future__ import annotations

import math
import zlib
from typing import Sequence

import numpy as np

from repro.errors import ClusteringError
from repro.mapreduce.api import Context
from repro.mapreduce.job import Job
from repro.ml.base import (ClusterModel, ClusteringResult, Executor,
                           SplitMapper, read_only)
from repro.ml.kmeans import CentroidReducer, PartialSumCombiner, _stats_sizeof


class NormalModel:
    """Isotropic Gaussian with mixture weight."""

    __slots__ = ("mean", "sigma", "weight")

    def __init__(self, mean, sigma: float, weight: float):
        self.mean = np.asarray(mean, dtype=float)
        self.sigma = max(float(sigma), 1e-6)
        self.weight = float(weight)

    def log_pdf(self, x: np.ndarray) -> float | np.ndarray:
        """Log density at one point ``(d,)`` or at every row of ``(n, d)``."""
        d = len(self.mean)
        diff = x - self.mean
        return (-0.5 * (diff * diff).sum(axis=-1) / (self.sigma ** 2)
                - d * math.log(self.sigma)
                - 0.5 * d * math.log(2.0 * math.pi))

    def as_tuple(self) -> tuple:
        return (tuple(self.mean), self.sigma, self.weight)


def sample_rows(rng: np.random.Generator, probs: np.ndarray) -> np.ndarray:
    """One categorical draw per row of ``probs`` from one ``rng.random(n)``.

    Consumes the stream and does the arithmetic of ``rng.choice(K, p=row)``
    called row by row: normalised cdf, ``searchsorted(u, side="right")``
    (for a sorted cdf, the number of entries ``<= u``).
    """
    cdf = probs.cumsum(axis=1)
    cdf /= cdf[:, -1:]
    return (cdf <= rng.random(len(probs))[:, None]).sum(axis=1)


class DirichletMapper(SplitMapper):
    """Sample a model assignment for each point of the split."""

    def __init__(self, models: Sequence[tuple], seed: int):
        self.models = [NormalModel(*m) for m in models]
        self.seed = seed

    def setup(self, context: Context) -> None:
        super().setup(context)
        # Deterministic per-task stream: seed + task id.
        entropy = zlib.crc32(context.task_id.encode()) & 0xFFFFFFFF
        self._rng = np.random.default_rng(
            np.random.SeedSequence([self.seed, entropy]))

    def map_split(self, keys, x, context: Context) -> None:
        logs = np.stack([math.log(max(m.weight, 1e-12)) + m.log_pdf(x)
                         for m in self.models], axis=1)
        logs -= logs.max(axis=1, keepdims=True)
        probs = np.exp(logs)
        probs /= probs.sum(axis=1, keepdims=True)
        for z, vec, vec_sq in zip(sample_rows(self._rng, probs).tolist(),
                                  x, read_only(x * x)):
            context.emit(z, (vec, vec_sq, 1))


class DirichletDriver:
    """Truncated-DP Gaussian mixture driver."""

    def __init__(self, n_models: int = 10, alpha0: float = 1.0,
                 max_iterations: int = 10):
        if n_models < 1:
            raise ClusteringError("n_models must be >= 1")
        if not (math.isfinite(alpha0) and alpha0 > 0):
            raise ClusteringError(f"DirichletDriver: alpha0 must be a finite "
                                  f"concentration > 0, got {alpha0}")
        if max_iterations < 1:
            raise ClusteringError("max_iterations must be >= 1")
        self.n_models = n_models
        self.alpha0 = float(alpha0)
        self.max_iterations = max_iterations

    def _prior_models(self, executor: Executor, records: list
                      ) -> list[NormalModel]:
        """Sample K prior models from the data's empirical spread."""
        points = np.asarray([vec for _pid, vec in records], dtype=float)
        rng = executor.rng("ml/dirichlet/prior")
        mean, std = points.mean(axis=0), points.std(axis=0).mean() + 1e-6
        models = []
        for _ in range(self.n_models):
            center = mean + rng.normal(scale=std, size=points.shape[1])
            models.append(NormalModel(center, max(std, 1.0),
                                      1.0 / self.n_models))
        return models

    def run(self, executor: Executor, input_path: str,
            work_prefix: str = "/dirichlet") -> ClusteringResult:
        records = executor.input_records(input_path)
        if not records:
            raise ClusteringError(
                f"dirichlet: no input points at {input_path!r}")
        models = self._prior_models(executor, records)
        rng = executor.rng("ml/dirichlet/weights")
        n_total = len(records)
        d = len(models[0].mean)
        result = ClusteringResult(algorithm="dirichlet", models=[])

        for iteration in range(self.max_iterations):
            snapshot = [m.as_tuple() for m in models]
            seed = 1000 + iteration
            job = Job(
                name="dirichlet-iter",
                input_paths=[input_path],
                output_path=f"{work_prefix}/state-{iteration}",
                mapper=lambda: DirichletMapper(snapshot, seed),
                combiner=PartialSumCombiner,
                reducer=CentroidReducer,
                n_reduces=1,
                intermediate_sizeof=_stats_sizeof,
                output_sizeof=lambda pair: 24 + 8 * d,
                # K pdf evaluations per record.
                map_cpu_per_record=2.0e-5 + 2.5e-8 * self.n_models * d,
                reduce_cpu_per_record=1.0e-5,
            )
            output, elapsed = executor.run_job(job)
            result.per_iteration_s.append(elapsed)
            result.runtime_s += elapsed
            result.iterations += 1

            counts = np.zeros(self.n_models)
            new_models = list(models)
            for cid, (center, weight, radius) in output:
                counts[cid] = weight
                sigma = max(radius / math.sqrt(max(d, 1)), 1e-3)
                new_models[cid] = NormalModel(center, sigma, weight)
            # Resample mixture weights ~ Dirichlet(alpha0/K + counts).
            alpha = self.alpha0 / self.n_models + counts
            weights = rng.dirichlet(alpha)
            for model, w in zip(new_models, weights):
                model.weight = float(w)
            models = new_models
            result.history.append([
                ClusterModel(cid, tuple(m.mean), weight=counts[cid],
                             radius=m.sigma)
                for cid, m in enumerate(models)])

        # Significant models: enough support to matter (Mahout's
        # "significant" threshold of ~5% of the data).
        threshold = 0.05 * n_total
        result.models = [
            ClusterModel(cid, tuple(m.mean),
                         weight=float(counts[cid]), radius=m.sigma)
            for cid, m in enumerate(models) if counts[cid] >= threshold]
        if not result.models:  # fall back to the heaviest model
            best = int(np.argmax(counts))
            result.models = [ClusterModel(best, tuple(models[best].mean),
                                          weight=float(counts[best]),
                                          radius=models[best].sigma)]
        result.converged = True
        return result
