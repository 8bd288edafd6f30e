"""The cluster runner's intermediate data path: columns -> key-grouped
partition runs -> reduce-side merge.  ``LocalJobRunner`` (plain pairs) is
the oracle throughout."""

import gc
import tracemalloc
import weakref

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import constants as C
from repro.config import HadoopConfig, PlatformConfig
from repro.datasets.text import generate_corpus
from repro.experiments.common import make_platform, sixteen_node_cluster
from repro.mapreduce import (HashPartitioner, Job, LocalJobRunner, Mapper,
                             Reducer)
from repro.mapreduce import runner as runner_module
from repro.mapreduce.api import (MIXED, Context, group_by_key, group_pairs,
                                 merge_runs, partition_bytes,
                                 partition_groups)
from repro.platform import ClusterSpec, VHadoopPlatform
from repro.workloads.wordcount import (line_record_sizeof, lines_as_records,
                                       scaled_line_sizeof, wordcount_job)
from tests.chaos.test_recovery import ENGINES, run_job

_SLOW = dict(deadline=None,
             suppress_health_check=[HealthCheck.too_slow,
                                    HealthCheck.data_too_large])

#: Few distinct keys of three types, so keys repeat within a map task,
#: across map tasks and across key types that print alike (1 vs "1").
KEYS = st.one_of(st.sampled_from(["a", "b", "1", ""]), st.integers(0, 3),
                 st.tuples(st.integers(0, 1), st.sampled_from(["a", "b"])))
#: One input record: ``(batch?, keys, value)``.
RECORDS = st.lists(st.tuples(st.booleans(), st.lists(KEYS, max_size=4),
                             st.integers(-9, 9)), min_size=1, max_size=24)


class ScriptedMapper(Mapper):
    """Emits what its record says, through the per-pair or the batch emit."""

    def map(self, key, value, context):
        batch, keys, v = value
        if batch:
            context.emit_many(keys, v)
        else:
            for k in keys:
                context.emit(k, v)


class CollectReducer(Reducer):
    """Order-sensitive: the output pins the order the values arrived in."""

    def reduce(self, key, values, context):
        context.emit(key, tuple(values))


class SumReducer(Reducer):
    def reduce(self, key, values, context):
        context.emit(key, sum(values))


def small_cluster(seed=5, **hadoop):
    platform = VHadoopPlatform(PlatformConfig(n_hosts=2, seed=seed))
    cluster = platform.provision_cluster(
        "dp", ClusterSpec.single_host(4), hadoop_config=HadoopConfig(**hadoop))
    return platform, cluster


@pytest.fixture
def on_map_output(monkeypatch):
    """``on_map_output(hook)``: call ``hook(output)`` for every
    ``_MapOutput`` the runner builds during the test."""
    hooks = []
    init = runner_module._MapOutput.__init__

    def hooked_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        for hook in hooks:
            hook(self)

    monkeypatch.setattr(runner_module._MapOutput, "__init__", hooked_init)
    return hooks.append


def run_on_cluster(job, records, **hadoop):
    platform, cluster = small_cluster(**hadoop)
    platform.upload(cluster, "/in", records, timed=False)
    report = platform.run_job(cluster, job)
    return platform.runner(cluster).read_output(report), report


# --- differential: cluster == LocalJobRunner -------------------------------

@settings(max_examples=30, **_SLOW)
@given(RECORDS, st.integers(1, 5), st.integers(1, 3), st.booleans(),
       st.booleans())
def test_cluster_equals_local_over_key_types_and_emit_styles(
        values, n_reduces, n_maps, has_combiner, use_combiner):
    records = list(enumerate(values))
    # A combiner may run zero or more times, so the reducer behind one
    # must not care; without one the reducer pins the value order too.
    job = Job(name="dp", input_paths=["/in"], output_path="/out",
              mapper=ScriptedMapper,
              reducer=SumReducer if has_combiner else CollectReducer,
              combiner=SumReducer if has_combiner else None,
              n_reduces=n_reduces, force_num_maps=n_maps)
    out, report = run_on_cluster(job, records, use_combiner=use_combiner)
    # Not sorted: partition order, then key order, is part of the contract.
    assert out == LocalJobRunner().run(job, records)
    assert report.counters.get("job", "map_output_records") == sum(
        len(keys) for _batch, keys, _v in values)


@settings(max_examples=10, **_SLOW)
@given(RECORDS, st.integers(1, 3))
def test_map_only_cluster_equals_local_in_emission_order(values, n_maps):
    records = list(enumerate(values))
    job = Job(name="dp-maponly", input_paths=["/in"], output_path="/out",
              mapper=ScriptedMapper, n_reduces=0, force_num_maps=n_maps)
    out, _report = run_on_cluster(job, records)
    assert out == LocalJobRunner().run(job, records)


@settings(max_examples=100, **_SLOW)
@given(st.lists(st.lists(st.tuples(KEYS, st.integers(-9, 9)), max_size=12),
                max_size=4), st.integers(1, 4))
def test_merge_of_partition_runs_equals_group_by_key(map_outputs, n):
    """What the runner does with several maps' output, without a cluster."""
    partitioner = HashPartitioner()
    runs = []
    for pairs in map_outputs:
        ctx = Context()
        for key, value in pairs:
            ctx.emit(key, value)
        runs.append(partition_groups(ctx.drain_grouped(), partitioner, n))
    for p in range(n):
        pairs = [(k, v) for out in map_outputs for k, v in out
                 if partitioner.partition(k, n) == p]
        assert list(merge_runs(out[p] for out in runs)) == group_by_key(pairs)


#: Value objects an emit script draws from: shared objects, and ones that
#: are equal but not identical (``1``, ``True``, ``1.0``; two ``2.5``s).
VALUES = [1, True, 1.0, 2.5, float("2.5"), "v", None]
#: One emission: ``(batch?, keys, index into VALUES)``.
EMITS = st.lists(st.tuples(st.booleans(), st.lists(KEYS, max_size=5),
                           st.integers(0, len(VALUES) - 1)), max_size=12)
SIZEOFS = [lambda pair: 3 * len(repr(pair[0])) + len(repr(pair[1])),
           lambda pair: 0.1 * len(repr(pair)),
           lambda pair: len(repr(pair[1])) > 3]


def _strict(pairs):
    """Pairs compared by key and by value *object* (1 == True == 1.0)."""
    return [(key, type(key), id(value)) for key, value in pairs]


def _strict_groups(groups):
    return [(key, type(key), list(map(id, values)))
            for key, values in groups.items()]


def _strict_runs(runs):
    return [(run.keys, run.counts, list(map(id, run.values)))
            for run in runs]


@settings(max_examples=150, deadline=None)
@given(EMITS, st.integers(1, 4), st.sampled_from(SIZEOFS))
def test_constant_runs_equal_the_per_pair_path(script, n, sizeof):
    """Whatever mix of emits, a context hands over what a plain pair list
    gives, and its runs and bytes are today's ``group_pairs`` ->
    ``partition_groups`` -> per-pair sum."""
    def replay():
        ctx = Context()
        for batch, keys, v in script:
            if batch:
                ctx.emit_many(keys, VALUES[v])
            else:
                for key in keys:
                    ctx.emit(key, VALUES[v])
        return ctx

    pairs = [(key, VALUES[v]) for _batch, keys, v in script for key in keys]
    assert _strict(replay().output) == _strict(pairs)
    assert _strict(replay().drain()) == _strict(pairs)
    assert _strict_groups(replay().drain_grouped()) == _strict_groups(
        group_pairs(pairs))

    ctx = replay()
    groups, value = ctx.drain_counted()
    assert ctx.output == [] and ctx.drain_counted() == ({}, None)
    expected_groups = group_pairs(pairs)
    if value is MIXED:
        assert _strict_groups(groups) == _strict_groups(expected_groups)
    else:
        assert all(v is value for _key, v in pairs)
        assert list(groups.items()) == [
            (key, len(values)) for key, values in expected_groups.items()]
    partitioner = HashPartitioner()
    runs = partition_groups(groups, partitioner, n, value)
    expected = partition_groups(expected_groups, partitioner, n)
    assert _strict_runs(runs) == _strict_runs(expected)
    assert partition_bytes(runs, sizeof, value) == {
        p: float(sum(map(sizeof, run.pairs())))
        for p, run in enumerate(expected)}


def test_a_constant_run_sums_float_sizes_per_pair_bit_for_bit():
    ctx = Context()
    ctx.emit_many(["k"] * 10, 1)
    ctx.emit_many(["j"], 1)
    groups, value = ctx.drain_counted()
    runs = partition_groups(groups, HashPartitioner(), 1, value)
    # Ten 0.1s summed are 0.9999999999999999; 10 * 0.1 would be 1.0.
    assert partition_bytes(runs, lambda pair: 0.1, value) == {
        0: 0.9999999999999999 + 0.1}
    assert partition_bytes(runs, lambda pair: True, value) == {0: 11.0}


# --- pins -------------------------------------------------------------------

def test_reducer_sees_a_keys_values_in_map_then_emission_order():
    # Two maps; "k" is emitted around other keys and through both emits.
    values = [(False, ["k", "x", "k"], 1), (True, ["y", "k"], 2),
              (True, ["k", "k"], 3), (False, ["x", "k"], 4)]
    job = Job(name="order", input_paths=["/in"], output_path="/out",
              mapper=ScriptedMapper, reducer=CollectReducer, n_reduces=1,
              force_num_maps=2)
    out, _report = run_on_cluster(job, list(enumerate(values)))
    assert dict(out)["k"] == (1, 1, 2, 3, 3, 4)


class CountingPartitioner(HashPartitioner):
    def __init__(self):
        super().__init__()
        self.calls = []

    def partition(self, key, n_partitions):
        self.calls.append(key)
        return super().partition(key, n_partitions)


def test_partitioner_is_asked_once_per_distinct_key_per_map_task():
    lines = ["a b a c", "b a a a", "c c d a"] * 4
    records = lines_as_records(lines)
    partitioner = CountingPartitioner()
    job = wordcount_job("/in", "/out", n_reduces=3)
    job.partitioner = partitioner
    job.force_num_maps = 2
    platform, cluster = small_cluster()
    platform.upload(cluster, "/in", records, sizeof=line_record_sizeof,
                    timed=False)
    report = platform.run_job(cluster, job)
    half = len(records) // 2
    expected = sum(len({w for _o, line in chunk for w in line.split()})
                   for chunk in (records[:half], records[half:]))
    assert report.n_maps == 2
    assert len(partitioner.calls) == expected == 8   # not the 48 pairs
    assert report.counters.get("job", "map_output_records") == 48


def test_map_only_job_never_asks_the_partitioner():
    partitioner = CountingPartitioner()
    job = Job(name="dp-maponly", input_paths=["/in"], output_path="/out",
              mapper=ScriptedMapper, n_reduces=0, partitioner=partitioner)
    out, _report = run_on_cluster(job, [(0, (True, ["a", "b"], 1))])
    assert out == [("a", 1), ("b", 1)] and partitioner.calls == []


def test_partition_bytes_is_the_per_partition_sum_of_per_pair_sizeof(
        on_map_output):
    outputs = []
    on_map_output(outputs.append)
    sized = []

    def sizeof(pair):
        sized.append(pair)
        key, value = pair
        return 3 * len(repr(key)) + abs(value) + 1

    mixed = [(True, ["a", 1, "a", (0, "b")], 5), (False, ["b", "a"], -2),
             (True, [1, 1, "b"], 7), (False, [(0, "b"), "a"], 0)]
    # Every map task's pairs carry the one value object ``5``.
    constant = [(True, keys, 5) for _batch, keys, _v in mixed]
    for values in (mixed, constant):
        outputs.clear()
        sized.clear()
        job = Job(name="bytes", input_paths=["/in"], output_path="/out",
                  mapper=ScriptedMapper, reducer=CollectReducer, n_reduces=3,
                  force_num_maps=2, intermediate_sizeof=sizeof)
        _out, report = run_on_cluster(job, list(enumerate(values)))
        calls = list(sized)

        assert len(outputs) == 2
        part = job.partitioner.partition
        per_map = []
        for output in outputs:
            pairs = [(k, v) for _i, (_batch, keys, v) in output.spec.records
                     for k in keys]
            per_map.append(pairs)
            assert output.partition_bytes == {
                p: float(sum(sizeof(kv) for kv in pairs
                             if part(kv[0], 3) == p))
                for p in range(3)}
            assert [len(run.values) for run in output.partitions] == [
                sum(part(k, 3) == p for k, _v in pairs) for p in range(3)]
        assert report.shuffle_bytes == sum(
            sum(o.partition_bytes.values()) for o in outputs)
        # Sized once per pair; a constant run once per distinct key of a
        # map task (a key lies in one partition).
        expected = [kv for pairs in per_map for kv in (
            dict.fromkeys(pairs) if values is constant else pairs)]
        assert sorted(calls, key=repr) == sorted(expected, key=repr)
        assert (len(calls) < sum(map(len, per_map))) == (values is constant)


# --- memory ------------------------------------------------------------------

def _paper_wordcount(mb):
    """One ``mb`` MB / volume_scale=400 wordcount on the 16-node cluster."""
    platform = make_platform(seed=0)
    cluster = sixteen_node_cluster(platform, "normal")
    lines = generate_corpus(
        mb * C.MB // 400, rng=platform.datacenter.rng.fresh("datasets/corpus"))
    platform.upload(cluster, "/in", lines_as_records(lines),
                    sizeof=scaled_line_sizeof(400), timed=False)
    return platform, cluster, wordcount_job("/in", "/out", n_reduces=8,
                                            volume_scale=400)


def test_intermediate_data_costs_at_most_64_bytes_per_pair():
    """tracemalloc peak over one job run, per intermediate pair.  A tuple
    per pair measured 132 B (tuple + key string + list slot); columns and
    key-grouped runs measure ~35 B."""
    platform, cluster, job = _paper_wordcount(512)
    tracemalloc.start()
    try:
        before, _peak = tracemalloc.get_traced_memory()
        report = platform.run_job(cluster, job)
        _now, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    n_pairs = report.counters.get("job", "map_output_records")
    assert n_pairs == 215_568
    assert (peak - before) / n_pairs <= 64


@pytest.mark.parametrize("engine", ENGINES)
def test_finished_job_keeps_no_map_output_alive(engine, on_map_output):
    """The phases sit in reference cycles and the scheduler's slot workers
    keep their last job in a frame: without an explicit drop every run of a
    finished job would live until a cycle collection (or for ever)."""
    refs = []
    on_map_output(lambda output: refs.append(weakref.ref(output)))
    platform, cluster = small_cluster()
    platform.upload(cluster, "/in", lines_as_records(["a b c d e f"] * 1600),
                    sizeof=line_record_sizeof, timed=False)
    job = wordcount_job("/in", "/out", n_reduces=2)
    job.force_num_maps = 16
    gc.collect()
    gc.disable()
    try:
        report = run_job(platform, cluster, job, engine)
        platform.sim.run()
        alive = sum(ref() is not None for ref in refs)
    finally:
        gc.enable()
    assert len(refs) == report.n_maps == 16
    assert alive == 0
    assert dict(platform.collect(cluster, report)) == dict.fromkeys(
        "abcdef", 1600)
