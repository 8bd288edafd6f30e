"""Unit tests for the MapReduce programming API."""


from repro.mapreduce.api import (Context, HashPartitioner, KeyRun, Mapper,
                                 RangePartitioner, Reducer, combine,
                                 group_by_key, merge_runs, partition_groups,
                                 run_mapper, run_reducer, stable_hash)
from repro.mapreduce.counters import Counters


# --- stable_hash ------------------------------------------------------------

def test_stable_hash_deterministic_across_types():
    assert stable_hash("word") == stable_hash("word")
    assert stable_hash(b"word") == stable_hash("word".encode())
    assert stable_hash(42) == stable_hash(42)
    assert stable_hash((1, "a")) == stable_hash((1, "a"))


def test_stable_hash_nonnegative():
    for value in ("a", "zz", -17, 0, 3.14, ("k", 2), b"\xff" * 8):
        assert stable_hash(value) >= 0


def test_stable_hash_spreads_keys():
    buckets = {stable_hash(f"key-{i}") % 16 for i in range(200)}
    assert len(buckets) == 16


# --- Context -------------------------------------------------------------------

def test_context_emit_and_drain():
    ctx = Context()
    ctx.emit("k", 1)
    ctx.write("k", 2)  # Hadoop-style alias
    assert ctx.output == [("k", 1), ("k", 2)]
    assert ctx.drain() == [("k", 1), ("k", 2)]
    assert ctx.output == []


def test_context_emit_many_interleaves_with_emit_in_order():
    ctx = Context()
    ctx.emit("a", 0)
    ctx.emit_many(["b", "a", "c"], 1)
    ctx.emit_many([], 9)
    ctx.write("b", 2)
    pairs = [("a", 0), ("b", 1), ("a", 1), ("c", 1), ("b", 2)]
    assert ctx.output == pairs
    assert ctx.output == pairs          # a snapshot: reading drains nothing
    assert ctx.drain() == pairs
    assert ctx.drain() == []


def test_context_drain_grouped_first_emission_order_and_forgets():
    ctx = Context()
    ctx.emit_many(["b", "a", "b"], 1)
    ctx.emit("a", 2)
    groups = ctx.drain_grouped()
    assert list(groups.items()) == [("b", [1, 1]), ("a", [1, 2])]
    assert ctx.output == [] and ctx.drain_grouped() == {}


def test_context_counters_shared():
    counters = Counters()
    ctx = Context(counters=counters)
    ctx.counters.incr("g", "n", 5)
    assert counters.get("g", "n") == 5


# --- mapper/reducer execution ------------------------------------------------

class DoublingMapper(Mapper):
    def map(self, key, value, context):
        context.emit(key, value * 2)


class SummingReducer(Reducer):
    def reduce(self, key, values, context):
        context.emit(key, sum(values))


def test_run_mapper_executes_user_code():
    out = run_mapper(DoublingMapper(), [("a", 1), ("b", 2)], Context())
    assert out == [("a", 2), ("b", 4)]


def test_default_mapper_is_identity():
    out = run_mapper(Mapper(), [("a", 1)], Context())
    assert out == [("a", 1)]


def test_setup_cleanup_hooks_called():
    calls = []

    class Hooked(Mapper):
        def setup(self, context):
            calls.append("setup")

        def cleanup(self, context):
            calls.append("cleanup")

    run_mapper(Hooked(), [("a", 1)], Context())
    assert calls == ["setup", "cleanup"]


def test_run_reducer_groups():
    grouped = group_by_key([("a", 1), ("b", 5), ("a", 2)])
    out = run_reducer(SummingReducer(), grouped, Context())
    assert out == [("a", 3), ("b", 5)]


def test_group_by_key_sorted_and_stable():
    grouped = group_by_key([("b", 1), ("a", 2), ("b", 3)])
    assert grouped == [("a", [2]), ("b", [1, 3])]


def test_group_by_key_heterogeneous_keys_no_typeerror():
    grouped = group_by_key([(1, "x"), ("a", "y"), ((2, 3), "z")])
    assert len(grouped) == 3


def test_run_mapper_and_reducer_hand_over_what_drain_says():
    groups = run_mapper(DoublingMapper(), [("a", 1), ("b", 2), ("a", 3)],
                        Context(), Context.drain_grouped)
    assert groups == {"a": [2, 6], "b": [4]}
    out = run_reducer(SummingReducer(), groups.items(), Context(),
                      Context.drain_grouped)
    assert out == {"a": [8], "b": [4]}


# --- key-grouped runs ----------------------------------------------------------

class FirstCharPartitioner(HashPartitioner):
    def partition(self, key, n_partitions):
        return ord(key[0]) % n_partitions


def test_partition_groups_builds_one_run_per_partition():
    groups = {"b1": [1, 2], "a1": [3], "b2": [4], "a2": [5, 6, 7]}
    runs = partition_groups(groups, FirstCharPartitioner(), 2)
    assert runs == [KeyRun(["b1", "b2"], [2, 1], [1, 2, 4]),
                    KeyRun(["a1", "a2"], [1, 3], [3, 5, 6, 7])]
    assert list(runs[1].pairs()) == [("a1", 3), ("a2", 5), ("a2", 6),
                                     ("a2", 7)]
    assert partition_groups({}, FirstCharPartitioner(), 3) == [
        KeyRun([], [], [])] * 3


def test_merge_runs_equals_group_by_key_of_the_runs_laid_end_to_end():
    runs = [KeyRun(["b", "a"], [2, 1], [1, 2, 3]),
            KeyRun([], [], []),
            KeyRun([7, "a", "b"], [1, 2, 1], ["x", 4, 5, 6])]
    pairs = [pair for run in runs for pair in run.pairs()]
    merged = list(merge_runs(runs))
    assert merged == group_by_key(pairs)
    assert merged == [(7, ["x"]), ("a", [3, 4, 5]), ("b", [1, 2, 6])]
    # Fresh lists: a reducer that mutates its values cannot corrupt a run
    # another (retried or speculative) attempt will merge again.
    merged[1][1].clear()
    assert runs[0].values == [1, 2, 3]


def test_combine_applies_combiner():
    pairs = [("a", 1), ("a", 1), ("b", 1)]
    out = combine(SummingReducer, pairs, Context())
    assert sorted(out) == [("a", 2), ("b", 1)]


def test_combine_none_is_identity():
    pairs = [("a", 1), ("a", 1)]
    assert combine(None, pairs, Context()) is pairs


# --- partitioners --------------------------------------------------------------

def test_hash_partitioner_in_range():
    p = HashPartitioner()
    for key in ("a", "b", 42, (1, 2)):
        assert 0 <= p.partition(key, 7) < 7


def test_range_partitioner_orders_partitions():
    p = RangePartitioner(boundaries=[10, 20])
    assert p.partition(5, 3) == 0
    assert p.partition(10, 3) == 1
    assert p.partition(15, 3) == 1
    assert p.partition(25, 3) == 2


def test_range_partitioner_single_partition():
    p = RangePartitioner(boundaries=[])
    assert p.partition("anything", 1) == 0


# --- counters --------------------------------------------------------------------

def test_counters_incr_get_merge():
    a = Counters()
    a.incr("job", "maps", 2)
    b = Counters()
    b.incr("job", "maps", 3)
    b.incr("job", "reduces")
    a.merge(b)
    assert a.get("job", "maps") == 5
    assert a.get("job", "reduces") == 1
    assert a.get("job", "missing") == 0


def test_counters_iteration_sorted():
    c = Counters()
    c.incr("b", "y")
    c.incr("a", "x")
    assert list(c) == [("a", "x", 1), ("b", "y", 1)]
    assert c.as_dict() == {"a": {"x": 1}, "b": {"y": 1}}
