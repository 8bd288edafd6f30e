"""Machine Learning Algorithm Library (the paper's Mahout 0.6 stand-in).

The six MapReduce-based clustering algorithms the paper runs — Canopy,
Dirichlet, Fuzzy k-Means, k-Means, MeanShift, MinHash — implemented from
scratch as MapReduce drivers over the engine in :mod:`repro.mapreduce`,
plus the other two categories the paper's library description names:
classification (:mod:`repro.ml.naivebayes`) and recommendations
(:mod:`repro.ml.recommender`).
Every algorithm also works standalone through the
:class:`~repro.ml.base.LocalExecutor` (pure functional, no cluster) so the
math is testable in isolation.

Distance measures live in :mod:`repro.ml.vectors`;
:mod:`repro.ml.display` renders the Fig. 8 panels as ASCII scatter plots.
"""

from repro.ml.base import (ClusterModel, ClusteringResult, ClusterExecutor,
                           LocalExecutor, points_as_records, vector_sizeof)
from repro.ml.canopy import CanopyDriver
from repro.ml.dirichlet import DirichletDriver
from repro.ml.fuzzykmeans import FuzzyKMeansDriver
from repro.ml.kmeans import KMeansDriver
from repro.ml.meanshift import MeanShiftDriver
from repro.ml.minhash import MinHashDriver
from repro.ml.naivebayes import NaiveBayesDriver, NaiveBayesModel
from repro.ml.recommender import (ItemCooccurrenceRecommender,
                                  RecommendationResult)
from repro.ml.vectors import (ChebyshevDistance, CosineDistance,
                              EuclideanDistance, ManhattanDistance,
                              SquaredEuclideanDistance, TanimotoDistance)

__all__ = [
    "CanopyDriver", "ChebyshevDistance",
    "ClusterExecutor", "ClusterModel", "ClusteringResult", "CosineDistance",
    "DirichletDriver", "EuclideanDistance", "FuzzyKMeansDriver",
    "ItemCooccurrenceRecommender", "KMeansDriver", "LocalExecutor",
    "ManhattanDistance", "MeanShiftDriver", "MinHashDriver",
    "NaiveBayesDriver", "NaiveBayesModel", "RecommendationResult",
    "SquaredEuclideanDistance", "TanimotoDistance", "points_as_records",
    "vector_sizeof",
]
