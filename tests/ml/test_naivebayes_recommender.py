"""Tests for the classification and recommendation drivers."""

import pytest

from repro.config import PlatformConfig
from repro.errors import ClusteringError
from repro.ml import ClusterExecutor, LocalExecutor
from repro.ml.naivebayes import NaiveBayesDriver, NaiveBayesModel
from repro.ml.recommender import ItemCooccurrenceRecommender
from repro.platform import ClusterSpec, VHadoopPlatform

TRAIN_DOCS = [
    (0, ("spam", ("buy", "cheap", "pills", "now"))),
    (1, ("spam", ("cheap", "watches", "buy", "buy"))),
    (2, ("spam", ("free", "pills", "offer"))),
    (3, ("ham", ("meeting", "tomorrow", "agenda"))),
    (4, ("ham", ("lunch", "tomorrow", "noon"))),
    (5, ("ham", ("project", "agenda", "review", "meeting"))),
]
TEST_DOCS = [
    (10, ("buy", "pills", "offer")),
    (11, ("cheap", "watches")),
    (12, ("meeting", "agenda")),
    (13, ("lunch", "noon", "tomorrow")),
]
TEST_TRUTH = {10: "spam", 11: "spam", 12: "ham", 13: "ham"}

PREFS = [
    ((u, i), r) for u, i, r in [
        ("alice", "matrix", 5.0), ("alice", "inception", 4.0),
        ("alice", "heat", 2.0),
        ("bob", "matrix", 4.0), ("bob", "inception", 5.0),
        ("bob", "tenet", 4.0),
        ("carol", "matrix", 5.0), ("carol", "heat", 4.0),
        ("dave", "inception", 3.0), ("dave", "tenet", 5.0),
        ("dave", "heat", 2.0),
    ]
]


# --- naive bayes ------------------------------------------------------------

def test_naive_bayes_learns_and_classifies():
    executor = LocalExecutor({"/train": TRAIN_DOCS, "/test": TEST_DOCS})
    driver = NaiveBayesDriver()
    model, _t = driver.train(executor, "/train")
    assert set(model.labels) == {"spam", "ham"}
    predictions, _t = driver.classify(executor, model, "/test")
    assert predictions == TEST_TRUTH


def test_naive_bayes_model_scores_sane():
    executor = LocalExecutor({"/train": TRAIN_DOCS})
    model, _t = NaiveBayesDriver().train(executor, "/train")
    spam_score = model.score(("buy", "cheap"), "spam")
    ham_score = model.score(("buy", "cheap"), "ham")
    assert spam_score > ham_score
    # Unseen tokens fall back to the smoothed floor, not a crash.
    assert model.classify(("zzz", "qqq")) in ("spam", "ham")


def test_naive_bayes_priors_reflect_class_balance():
    skewed = TRAIN_DOCS + [(6, ("ham", ("extra",))),
                           (7, ("ham", ("more",)))]
    executor = LocalExecutor({"/train": skewed})
    model, _t = NaiveBayesDriver().train(executor, "/train")
    assert model.log_priors["ham"] > model.log_priors["spam"]


def test_naive_bayes_on_cluster_matches_local():
    local_exec = LocalExecutor({"/train": TRAIN_DOCS, "/test": TEST_DOCS})
    driver = NaiveBayesDriver()
    local_model, _ = driver.train(local_exec, "/train")
    local_pred, _ = driver.classify(local_exec, local_model, "/test")

    platform = VHadoopPlatform(PlatformConfig(n_hosts=2, seed=17))
    cluster = platform.provision_cluster("nb", ClusterSpec.single_host(4))
    platform.upload(cluster, "/train", TRAIN_DOCS, timed=False)
    platform.upload(cluster, "/test", TEST_DOCS, timed=False)
    cluster_exec = ClusterExecutor(platform.runner(cluster), cluster)
    cluster_model, train_s = driver.train(cluster_exec, "/train")
    cluster_pred, classify_s = driver.classify(cluster_exec, cluster_model,
                                               "/test")
    assert cluster_pred == local_pred
    assert cluster_model.log_priors == local_model.log_priors
    assert train_s > 0 and classify_s > 0


def test_naive_bayes_validation():
    with pytest.raises(ClusteringError):
        NaiveBayesDriver(alpha=0.0)
    executor = LocalExecutor({"/empty": [(0, ("x", ()))]})
    model, _ = NaiveBayesDriver().train(executor, "/empty")
    assert model.labels == ("x",)


# --- recommender ---------------------------------------------------------------

def test_recommender_suggests_cooccurring_items():
    executor = LocalExecutor({"/prefs": PREFS})
    result = ItemCooccurrenceRecommender(top_n=2).run(executor, "/prefs")
    # Carol likes matrix+heat; matrix co-occurs with inception twice.
    carol = dict(result.for_user("carol"))
    assert "inception" in carol
    # Never recommend something the user already has.
    assert "matrix" not in carol and "heat" not in carol


def test_recommender_cooccurrence_counts():
    executor = LocalExecutor({"/prefs": PREFS})
    result = ItemCooccurrenceRecommender().run(executor, "/prefs")
    # alice and bob both have (inception, matrix).
    assert result.cooccurrence[("inception", "matrix")] == 2
    # Symmetric pairs stored once, in sorted order.
    assert ("matrix", "inception") not in result.cooccurrence


def test_recommender_top_n_limits():
    executor = LocalExecutor({"/prefs": PREFS})
    result = ItemCooccurrenceRecommender(top_n=1).run(executor, "/prefs")
    assert all(len(recs) <= 1 for recs in result.recommendations.values())


def test_recommender_on_cluster_matches_local():
    local = ItemCooccurrenceRecommender(top_n=3).run(
        LocalExecutor({"/prefs": PREFS}), "/prefs")

    platform = VHadoopPlatform(PlatformConfig(n_hosts=2, seed=19))
    cluster = platform.provision_cluster("rec", ClusterSpec.single_host(4))
    platform.upload(cluster, "/prefs", PREFS, timed=False)
    remote = ItemCooccurrenceRecommender(top_n=3).run(
        ClusterExecutor(platform.runner(cluster), cluster), "/prefs")
    assert remote.recommendations == local.recommendations
    assert remote.cooccurrence == local.cooccurrence
    assert remote.runtime_s > 0


def test_recommender_validation():
    with pytest.raises(ClusteringError):
        ItemCooccurrenceRecommender(top_n=0)
