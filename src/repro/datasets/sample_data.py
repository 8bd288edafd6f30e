"""DisplayClustering sample data.

Mahout's ``DisplayClustering`` examples (the paper's Figs. 7-8) generate
1000 samples from three symmetric 2-D normal distributions and then overlay
each algorithm's clusters.  The canonical parameters (Mahout 0.6
``DisplayClustering.generateSamples``):

* 500 samples around (1, 1) with sigma 3;
* 300 samples around (1, 0) with sigma 0.5;
* 200 samples around (0, 2) with sigma 0.1.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.memo import cached

SAMPLE_COMPONENTS = (
    ((1.0, 1.0), 3.0, 500),
    ((1.0, 0.0), 0.5, 300),
    ((0.0, 2.0), 0.1, 200),
)


def generate_sample_data(rng: Optional[np.random.Generator] = None,
                         components=SAMPLE_COMPONENTS
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Return ``(X, component_labels)`` with X of shape (N, 2) (memoized,
    :mod:`repro.memo`)."""
    return cached(_generate, rng or np.random.default_rng(0), components)


def _generate(rng: np.random.Generator, components
              ) -> tuple[np.ndarray, np.ndarray]:
    points = []
    labels = []
    for index, (center, sigma, count) in enumerate(components):
        pts = rng.normal(loc=center, scale=sigma, size=(count, 2))
        points.append(pts)
        labels.extend([index] * count)
    return np.vstack(points), np.asarray(labels)


def sample_sizeof(_point) -> int:
    """Two doubles plus key overhead, as a Mahout VectorWritable."""
    return 2 * 8 + 16
