"""Multinomial Naive Bayes as MapReduce (the *classification* category of
the paper's Machine Learning Algorithm Library).

Mahout 0.6 ships ``TrainClassifier``/``TestClassifier`` built on exactly
this layout:

* **training job** — mapper emits ``(("label", label), 1)`` for each
  document and ``((label, token), count)`` for each token occurrence;
  combiner/reducer sum.  The driver assembles per-label priors and
  Laplace-smoothed token log-likelihoods;
* **classification job** — map-only: each document is scored under every
  label (``log prior + sum token counts * log P(token | label)``); emits
  ``(doc_id, best_label)``.

Documents are ``(doc_id, (label, tokens))`` records for training and
``(doc_id, tokens)`` for classification, with tokens a tuple of strings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from repro.errors import ClusteringError
from repro.mapreduce.api import Context, Mapper, Reducer
from repro.mapreduce.job import Job
from repro.ml.base import Executor

_LABEL_MARKER = "\x00label"


class TrainMapper(Mapper):
    """(doc_id, (label, tokens)) -> label and (label, token) counts."""

    def map(self, key, value, context: Context) -> None:
        label, tokens = value
        context.emit((_LABEL_MARKER, label), 1)
        counts: dict[str, int] = {}
        for token in tokens:
            counts[token] = counts.get(token, 0) + 1
        for token, count in counts.items():
            context.emit((label, token), count)


class SumReducer(Reducer):
    def reduce(self, key, values, context: Context) -> None:
        context.emit(key, sum(values))


@dataclass
class NaiveBayesModel:
    """Priors + smoothed token likelihoods."""

    labels: tuple
    log_priors: dict
    #: (label, token) -> log P(token | label), Laplace-smoothed.
    log_likelihoods: dict
    #: label -> log of the unseen-token fallback probability.
    log_unseen: dict
    vocabulary: frozenset = field(default_factory=frozenset)

    def score(self, tokens: Iterable[str], label: str) -> float:
        total = self.log_priors[label]
        for token in tokens:
            total += self.log_likelihoods.get(
                (label, token), self.log_unseen[label])
        return total

    def classify(self, tokens: Sequence[str]) -> str:
        return max(self.labels, key=lambda lb: self.score(tokens, lb))


class ClassifyMapper(Mapper):
    """(doc_id, tokens) -> (doc_id, predicted_label)."""

    def __init__(self, model: NaiveBayesModel):
        self.model = model

    def map(self, key, value, context: Context) -> None:
        context.emit(key, self.model.classify(tuple(value)))


def _pair_sizeof(pair) -> int:
    key, _count = pair
    return len(repr(key)) + 8


class NaiveBayesDriver:
    """Train + classify over an :class:`~repro.ml.base.Executor`."""

    def __init__(self, alpha: float = 1.0, n_reduces: int = 1):
        if alpha <= 0:
            raise ClusteringError("Laplace alpha must be > 0")
        self.alpha = float(alpha)
        self.n_reduces = n_reduces

    # -- training -------------------------------------------------------------
    def train(self, executor: Executor, input_path: str,
              work_prefix: str = "/nbayes") -> tuple[NaiveBayesModel, float]:
        """Returns (model, simulated seconds)."""
        job = Job(
            name="nbayes-train",
            input_paths=[input_path],
            output_path=f"{work_prefix}/model",
            mapper=TrainMapper,
            combiner=SumReducer,
            reducer=SumReducer,
            n_reduces=self.n_reduces,
            intermediate_sizeof=_pair_sizeof,
            output_sizeof=_pair_sizeof,
            map_cpu_per_record=5.0e-5,
            reduce_cpu_per_record=5.0e-6,
        )
        output, elapsed = executor.run_job(job)
        return self._assemble(output), elapsed

    def _assemble(self, counts: list) -> NaiveBayesModel:
        doc_counts: dict[str, int] = {}
        token_counts: dict[tuple, int] = {}
        label_token_totals: dict[str, int] = {}
        vocabulary: set[str] = set()
        for key, count in counts:
            marker, second = key
            if marker == _LABEL_MARKER:
                doc_counts[second] = count
            else:
                token_counts[(marker, second)] = count
                label_token_totals[marker] = \
                    label_token_totals.get(marker, 0) + count
                vocabulary.add(second)
        if not doc_counts:
            raise ClusteringError("training set contained no documents")
        total_docs = sum(doc_counts.values())
        v = max(1, len(vocabulary))
        labels = tuple(sorted(doc_counts))
        log_priors = {lb: math.log(doc_counts[lb] / total_docs)
                      for lb in labels}
        log_likelihoods = {}
        log_unseen = {}
        for lb in labels:
            denominator = label_token_totals.get(lb, 0) + self.alpha * v
            log_unseen[lb] = math.log(self.alpha / denominator)
            for (label, token), count in token_counts.items():
                if label == lb:
                    log_likelihoods[(lb, token)] = math.log(
                        (count + self.alpha) / denominator)
        return NaiveBayesModel(labels=labels, log_priors=log_priors,
                               log_likelihoods=log_likelihoods,
                               log_unseen=log_unseen,
                               vocabulary=frozenset(vocabulary))

    # -- classification ---------------------------------------------------------
    def classify(self, executor: Executor, model: NaiveBayesModel,
                 input_path: str, work_prefix: str = "/nbayes"
                 ) -> tuple[dict, float]:
        """Classify (doc_id, tokens) records; returns ({doc: label}, secs)."""
        job = Job(
            name="nbayes-classify",
            input_paths=[input_path],
            output_path=f"{work_prefix}/predictions",
            mapper=lambda: ClassifyMapper(model),
            n_reduces=0,
            output_sizeof=lambda pair: len(str(pair[1])) + 12,
            map_cpu_per_record=2.0e-5 + 1.0e-7 * len(model.vocabulary) ** 0.5,
        )
        output, elapsed = executor.run_job(job)
        return {doc: label for doc, label in output}, elapsed
