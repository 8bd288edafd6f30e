"""Unit tests for the LocalJobRunner (pure-functional reference)."""

import collections

import numpy as np
import pytest

from repro.datasets.tera import teragen
from repro.mapreduce import Job, LocalJobRunner, Mapper, Partitioner, Reducer
from repro.mapreduce.api import (Context, combine, group_by_key, run_mapper,
                                 run_reducer)
from repro.workloads.terasort import make_terasort_jobs
from repro.workloads.wordcount import (lines_as_records, wordcount_job)

LINES = ["alpha beta gamma", "beta gamma", "gamma gamma alpha"]
RECORDS = lines_as_records(LINES)


def test_local_wordcount_correct():
    runner = LocalJobRunner()
    out = runner.run(wordcount_job("/in", "/out", n_reduces=2), RECORDS)
    assert dict(out) == dict(collections.Counter(" ".join(LINES).split()))


def test_local_counters():
    runner = LocalJobRunner()
    runner.run(wordcount_job("/in", "/out", n_reduces=1), RECORDS)
    total = sum(collections.Counter(" ".join(LINES).split()).values())
    assert runner.counters.get("job", "map_output_records") == total


def test_local_map_only():
    runner = LocalJobRunner()
    job = Job(name="id", input_paths=["/in"], output_path="/out",
              mapper=Mapper, n_reduces=0)
    assert runner.run(job, RECORDS) == RECORDS


def test_local_output_order_by_partition_then_key():
    runner = LocalJobRunner()
    out = runner.run(wordcount_job("/in", "/out", n_reduces=3), RECORDS)
    # Within each partition, keys appear sorted; overall it is the
    # concatenation of the sorted partitions (Hadoop part-file order).
    job = wordcount_job("/in", "/out", n_reduces=3)
    partitions = [job.partitioner.partition(k, 3) for k, _v in out]
    assert partitions == sorted(partitions)


def test_local_combiner_same_result():
    plain = LocalJobRunner().run(
        wordcount_job("/in", "/out", n_reduces=2, use_combiner=False),
        RECORDS)
    combined = LocalJobRunner().run(
        wordcount_job("/in", "/out", n_reduces=2, use_combiner=True),
        RECORDS)
    assert sorted(plain) == sorted(combined)


def test_local_runner_reusable():
    runner = LocalJobRunner()
    job = wordcount_job("/in", "/out", n_reduces=1)
    first = runner.run(job, RECORDS)
    second = runner.run(job, RECORDS)
    assert first == second


class CountingPartitioner(Partitioner):
    """Delegates to ``inner`` and records every key it is asked about."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = []

    def partition(self, key, n_partitions):
        self.calls.append(key)
        return self.inner.partition(key, n_partitions)


class MixedEmitMapper(Mapper):
    """Per-pair and batch emits, with values that tell the pairs apart."""

    def map(self, key, value, context):
        words = value.split()
        context.emit_many(words, key)
        for word in words[::2]:
            context.emit(word, -key)


class CollectReducer(Reducer):
    def reduce(self, key, values, context):
        context.emit(key, tuple(values))


def per_pair_reference(job, records):
    """Partition every pair, then group each partition: the local runner
    before it asked the partitioner once per distinct key."""
    ctx = Context()
    pairs = combine(job.combiner, run_mapper(job.mapper(), records, ctx), ctx)
    parts = [[] for _ in range(job.n_reduces)]
    for key, value in pairs:
        parts[job.partitioner.partition(key, job.n_reduces)].append(
            (key, value))
    return [pair for part in parts for pair in run_reducer(
        job.reducer(), group_by_key(part), Context())]


def _wordcount():
    lines = ["a b a c", "b a a a", "c c d a", "e b"] * 3
    return wordcount_job("/in", "/out", n_reduces=3), lines_as_records(lines)


def _terasort():
    rows = teragen(30, np.random.default_rng(3))
    records = [(row.key, row) for row in rows + rows[:12]]  # repeated keys
    return make_terasort_jobs("/in", "/out", records, n_reduces=4), records


def _mixed():
    job = Job(name="mixed", input_paths=["/in"], output_path="/out",
              mapper=MixedEmitMapper, reducer=CollectReducer, n_reduces=3)
    return job, lines_as_records(["x y x", "z x", "y y w", "x"])


@pytest.mark.parametrize("make", [_wordcount, _terasort, _mixed],
                         ids=["wordcount", "terasort", "mixed"])
def test_local_runner_asks_the_partitioner_once_per_distinct_key(make):
    job, records = make()
    expected = per_pair_reference(job, records)
    counting = job.partitioner = CountingPartitioner(job.partitioner)
    assert LocalJobRunner().run(job, records) == expected
    assert sorted(counting.calls, key=repr) == sorted(
        {key for key, _value in run_mapper(job.mapper(), records, Context())},
        key=repr)
