"""The dataset memo's contract: a hit is a cold build, state included.

(The clustering kernels' memo: ``tests/ml/test_kernel_memo.py``.)
"""

from collections import OrderedDict

import numpy as np
import pytest

from repro import memo
from repro.datasets import (generate_corpus, generate_synthetic_control,
                            teragen)


@pytest.fixture(autouse=True)
def cold(monkeypatch):
    """An empty memo for each test; the process-wide one comes back after."""
    monkeypatch.setattr(memo.DATASETS, "_entries", OrderedDict())


class Counting:
    """A build function that counts its cold builds."""

    def __init__(self):
        self.builds = 0

    def __call__(self, rng, n):
        self.builds += 1
        return [float(x) for x in rng.random(n)]


def test_a_hit_equals_a_cold_build_and_leaves_the_same_state():
    cold_rng = np.random.default_rng(11)
    cold = generate_corpus(20_000, rng=cold_rng)
    after_cold = cold_rng.random(3)
    hit_rng = np.random.default_rng(11)
    hit = generate_corpus(20_000, rng=hit_rng)
    assert len(memo.DATASETS._entries) == 1  # the second call was a hit
    assert hit == cold
    assert (hit_rng.random(3) == after_cold).all()


def test_mutating_a_returned_value_does_not_change_the_next_hit():
    lines = generate_corpus(5_000, rng=np.random.default_rng(1))
    expected = list(lines)
    lines.append("mutated")
    lines[0] = "mutated"
    assert generate_corpus(5_000, rng=np.random.default_rng(1)) == expected
    X, labels = generate_synthetic_control(n_per_class=5,
                                           rng=np.random.default_rng(1))
    expected_X, expected_labels = X.copy(), labels.copy()
    X[:] = 0.0
    labels[:] = -1
    X2, labels2 = generate_synthetic_control(n_per_class=5,
                                             rng=np.random.default_rng(1))
    assert (X2 == expected_X).all() and (labels2 == expected_labels).all()
    records = teragen(10, rng=np.random.default_rng(1))
    records.clear()
    assert len(teragen(10, rng=np.random.default_rng(1))) == 10


def test_a_different_size_state_or_generator_is_a_miss():
    build, other = Counting(), Counting()
    memo.cached(build, np.random.default_rng(0), 4)
    memo.cached(build, np.random.default_rng(0), 4)
    assert build.builds == 1
    memo.cached(build, np.random.default_rng(0), 5)         # size
    memo.cached(build, np.random.default_rng(1), 4)         # rng state
    rng = np.random.default_rng(0)
    rng.random()
    memo.cached(build, rng, 4)                              # same seed, later
    memo.cached(build, np.random.default_rng(0), np.int64(4))  # its type
    assert build.builds == 5
    memo.cached(other, np.random.default_rng(0), 4)         # generator
    assert other.builds == 1


def test_the_bound_evicts_the_least_recently_used_entry():
    build = Counting()
    for n in range(memo.DATASETS.bound):
        memo.cached(build, np.random.default_rng(0), n)
    memo.cached(build, np.random.default_rng(0), 0)         # 0 is now recent
    memo.cached(build, np.random.default_rng(0), memo.DATASETS.bound)
    assert len(memo.DATASETS._entries) == memo.DATASETS.bound
    assert build.builds == memo.DATASETS.bound + 1
    memo.cached(build, np.random.default_rng(0), 0)         # still held
    assert build.builds == memo.DATASETS.bound + 1
    memo.cached(build, np.random.default_rng(0), 1)         # evicted
    assert build.builds == memo.DATASETS.bound + 2
