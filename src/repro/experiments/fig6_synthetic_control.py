"""Fig. 6 — parallel clustering on the Synthetic Control Chart dataset with
different hadoop virtual cluster scales (2, 4, 8, 16 nodes).

The paper runs canopy, dirichlet and meanshift over the 600-chart dataset
and observes the running time *increasing* with cluster size: the dataset
is fixed and tiny, so larger clusters only add communication (job
localization to every tracker, remote split reads, wider shuffles).
"""

from __future__ import annotations

from typing import Sequence

from repro.datasets.synthetic_control import generate_synthetic_control
from repro.experiments.common import (ExperimentResult, make_platform,
                                      scaled_cluster)
from repro.ml import (CanopyDriver, ClusterExecutor, DirichletDriver,
                      MeanShiftDriver)
from repro.ml.base import stage_points

CLUSTER_SCALES = (2, 4, 8, 16)
#: Thresholds tuned for control-chart vectors (60-D, values ~0-60; typical
#: inter-chart Euclidean distances are ~40-120).
CANOPY_T1, CANOPY_T2 = 80.0, 55.0
MEANSHIFT_T1, MEANSHIFT_T2 = 70.0, 35.0


def _drivers(max_iterations: int):
    return {
        "canopy": CanopyDriver(t1=CANOPY_T1, t2=CANOPY_T2),
        "dirichlet": DirichletDriver(n_models=10,
                                     max_iterations=max_iterations),
        "meanshift": MeanShiftDriver(t1=MEANSHIFT_T1, t2=MEANSHIFT_T2,
                                     max_iterations=max_iterations),
    }


def run(scales: Sequence[int] = CLUSTER_SCALES, n_per_class: int = 100,
        max_iterations: int = 5, seed: int = 0) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="fig6",
        title="Parallel clustering on Synthetic Control data vs cluster "
              "scale (seconds)",
        columns=("nodes", "canopy_s", "dirichlet_s", "meanshift_s"))
    for n_nodes in scales:
        platform = make_platform(seed=seed)
        points, _labels = generate_synthetic_control(
            n_per_class=n_per_class,
            rng=platform.datacenter.rng.fresh("datasets/control"))
        cluster = scaled_cluster(platform, n_nodes)
        stage_points(platform, cluster, "/control/input", points)
        executor = ClusterExecutor(platform.runner(cluster), cluster)
        drivers = _drivers(max_iterations)
        times = {}
        for name, driver in drivers.items():
            outcome = driver.run(executor, "/control/input",
                                 work_prefix=f"/{name}")
            times[name] = outcome.runtime_s
        result.add(n_nodes, times["canopy"], times["dirichlet"],
                   times["meanshift"])
    result.note("running time increases as the virtual cluster scales "
                "(fixed dataset, growing communication)")
    return result
