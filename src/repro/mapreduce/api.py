"""User-facing MapReduce programming API (Mapper/Reducer/Partitioner).

Mirrors the classic Hadoop API: a :class:`Mapper` turns one input record
into zero or more ``(key, value)`` pairs through ``context.emit``; a
:class:`Reducer` folds all values of one key.  A :class:`Combiner` is a
Reducer run on map-side output.  Instances are created fresh per task by
the factories a :class:`~repro.mapreduce.job.Job` carries, so mapper state
(e.g. cluster centers) is task-local exactly as in Hadoop.

The second half of the module is the intermediate data path both runners
are built from.  :class:`~repro.mapreduce.local.LocalJobRunner` moves plain
pairs (:func:`group_by_key`); the cluster runner never builds a pair: a
:class:`Context` collects two columns, :meth:`Context.drain_grouped` groups
them by key once, :func:`partition_groups` leaves each reduce partition as
a :class:`KeyRun`, :func:`partition_bytes` sizes the runs and
:func:`merge_runs` merges the runs of all maps at the reduce.  A context
whose every pair carries one value object (Wordcount's ``1``) keeps only its
key column, :meth:`Context.drain_counted` counts it and the shuffle costs
per distinct key, not per pair (DESIGN.md §5 item 8 has the measurements).
"""

from __future__ import annotations

import zlib
from bisect import bisect_right
from collections import Counter
from itertools import chain, repeat
from operator import mul
from typing import (Any, Callable, Iterable, Iterator, NamedTuple, Optional,
                    Sequence)

from repro.mapreduce.counters import Counters


def stable_hash(obj: Any) -> int:
    """Deterministic non-negative hash (Python's ``hash`` is salted per
    process, which would make partitioning non-reproducible)."""
    if isinstance(obj, bytes):
        data = obj
    elif isinstance(obj, str):
        data = obj.encode("utf-8", "surrogatepass")
    elif isinstance(obj, int):
        data = obj.to_bytes((obj.bit_length() + 8) // 8 + 1, "little",
                            signed=True)
    else:
        data = repr(obj).encode("utf-8", "surrogatepass")
    return zlib.crc32(data) & 0x7FFFFFFF


def group_pairs(pairs: Iterable[tuple[Any, Any]]) -> dict[Any, list]:
    """``key -> [values]``: keys in first-seen order, values in input order."""
    groups: dict[Any, list] = {}
    get = groups.get
    for key, value in pairs:
        bucket = get(key)
        if bucket is None:
            groups[key] = [value]
        else:
            bucket.append(value)
    return groups


#: The ``value`` of grouped output whose pairs carry more than one value
#: object (:meth:`Context.drain_counted`).
MIXED: Any = object()


class Context:
    """Collects a task's emitted pairs and exposes counters/config.

    Emitted keys and values are kept in two parallel columns, not as one
    tuple per pair: a map task emits millions of pairs, and that many
    short-lived tuples cost more in allocation and cyclic-GC passes than
    the user's map function itself.  While every emission so far came from
    :meth:`emit_many` with one and the same value object (``is``, so ``1``,
    ``True`` and ``1.0`` differ), the value column is that one object; the
    first other emission spells it out and carries on with two columns.
    """

    __slots__ = ("_keys", "_values", "_value", "counters", "task_id",
                 "config")

    def __init__(self, task_id: str = "task", counters: Optional[Counters] = None,
                 config: Optional[dict] = None):
        self._keys: list = []
        #: The value column, or None while every value is ``_value``.
        self._values: Optional[list] = None
        self._value: Any = None
        self.counters = counters if counters is not None else Counters()
        self.task_id = task_id
        self.config = config or {}

    def _spell_out(self) -> list:
        values = self._values = [self._value] * len(self._keys)
        return values

    def emit(self, key: Any, value: Any) -> None:
        values = self._values
        if values is None:
            values = self._spell_out()
        self._keys.append(key)
        values.append(value)

    # Hadoop spelling.
    write = emit

    def emit_many(self, keys: Sequence[Any], value: Any) -> None:
        """Emit ``(key, value)`` for every key of ``keys``, in order — one
        call per record where a loop over :meth:`emit` makes one per pair."""
        n = len(keys)   # taken first: ``keys`` without a length skews nothing
        values = self._values
        if values is None:
            if value is self._value or not self._keys:
                self._value = value
                self._keys.extend(keys)
                return
            values = self._spell_out()
        self._keys.extend(keys)
        values.extend(repeat(value, n))

    def _value_column(self) -> Iterable[Any]:
        if self._values is None:
            return repeat(self._value, len(self._keys))
        return self._values

    def _take(self) -> Iterator[tuple[Any, Any]]:
        pairs = zip(self._keys, self._value_column())
        self._keys, self._values, self._value = [], None, None
        return pairs

    def drain(self) -> list[tuple[Any, Any]]:
        """Hand over (and forget) the emitted pairs, in emission order."""
        return list(self._take())

    def drain_grouped(self) -> dict[Any, list]:
        """Hand over (and forget) the emitted pairs as ``key -> [values]``:
        keys in first-emission order, a key's values in emission order."""
        return group_pairs(self._take())

    def drain_counted(self) -> tuple[dict[Any, Any], Any]:
        """Hand over (and forget) the emitted pairs grouped by key, as
        ``(groups, value)`` for :func:`partition_groups`.  If every pair
        carries one value object, ``groups`` maps each key to its number of
        pairs (C-level counting, no list per key) and ``value`` is that
        object; otherwise they are :meth:`drain_grouped` and :data:`MIXED`.
        Keys are in first-emission order either way."""
        if self._values is None:
            counts, value = Counter(self._keys), self._value
            self._keys, self._value = [], None
            return counts, value
        return self.drain_grouped(), MIXED

    @property
    def output(self) -> list[tuple[Any, Any]]:
        return list(zip(self._keys, self._value_column()))


class Mapper:
    """Override :meth:`map`; ``setup``/``cleanup`` run once per task."""

    def setup(self, context: Context) -> None:  # noqa: B027 - optional hook
        pass

    def map(self, key: Any, value: Any, context: Context) -> None:
        """Identity by default (Hadoop's default Mapper)."""
        context.emit(key, value)

    def cleanup(self, context: Context) -> None:  # noqa: B027 - optional hook
        pass


class Reducer:
    """Override :meth:`reduce`; receives each key with all of its values."""

    def setup(self, context: Context) -> None:  # noqa: B027 - optional hook
        pass

    def reduce(self, key: Any, values: Iterable[Any], context: Context) -> None:
        """Identity by default: re-emits every (key, value)."""
        for value in values:
            context.emit(key, value)

    def cleanup(self, context: Context) -> None:  # noqa: B027 - optional hook
        pass


#: A combiner is just a reducer applied to map output.
Combiner = Reducer


class Partitioner:
    """Maps a key to one of ``n`` reduce partitions.

    ``partition`` must be a pure function of ``(key, n_partitions)``, as
    Hadoop requires (every map task has to send a key to the same reduce).
    The cluster runner relies on it: it asks once per *distinct* key of a
    map task, not once per emitted pair, and never for a map-only job.
    """

    def partition(self, key: Any, n_partitions: int) -> int:
        raise NotImplementedError


class HashPartitioner(Partitioner):
    """Hadoop's default: ``stable_hash(key) % n``.

    Real workloads hash the same hot keys millions of times (every word of
    a corpus, every sample id), so results are memoised per instance.  A
    partitioner instance belongs to one :class:`~repro.mapreduce.job.Job`,
    which fixes ``n_partitions`` for its lifetime; the cache is dropped if
    a caller ever varies it.
    """

    _CACHE_LIMIT = 1 << 20

    def __init__(self) -> None:
        self._cache: dict[Any, int] = {}
        self._cache_n: Optional[int] = None

    def partition(self, key: Any, n_partitions: int) -> int:
        cache = self._cache
        if n_partitions != self._cache_n:
            if cache:
                cache.clear()
            self._cache_n = n_partitions
        try:
            index = cache.get(key)
        except TypeError:  # unhashable key: compute without memoisation
            return stable_hash(key) % n_partitions
        if index is None:
            index = stable_hash(key) % n_partitions
            if len(cache) < self._CACHE_LIMIT:
                cache[key] = index
        return index


class RangePartitioner(Partitioner):
    """Splits an ordered key space by precomputed boundaries (TeraSort).

    ``boundaries`` must ascend (as :func:`sample_boundaries` produces);
    partitioning is then a binary search instead of a linear boundary walk.
    """

    def __init__(self, boundaries: list):
        #: ``boundaries[i]`` is the smallest key of partition ``i+1``.
        self.boundaries = list(boundaries)

    def partition(self, key: Any, n_partitions: int) -> int:
        # A key equal to a boundary belongs to the partition on the right,
        # which is exactly bisect_right's tie rule.
        boundaries = self.boundaries
        return bisect_right(boundaries, key, 0,
                            min(n_partitions - 1, len(boundaries)))


def run_mapper(mapper: Mapper, records: Iterable[tuple[Any, Any]],
               context: Context,
               drain: Callable[[Context], Any] = Context.drain) -> Any:
    """Execute one mapper over ``(key, value)`` records; returns what
    ``drain`` hands over — the emitted pairs unless told otherwise."""
    mapper.setup(context)
    for key, value in records:
        mapper.map(key, value, context)
    mapper.cleanup(context)
    return drain(context)


def _key_order(item: tuple[Any, Any]):
    key = item[0]
    return (type(key).__name__, repr(key)) if not isinstance(
        key, (int, float, str, bytes, tuple)) else (type(key).__name__, key)


def sort_groups(groups: dict[Any, list]) -> list[tuple[Any, list]]:
    """``groups`` as ``(key, values)`` items in reduce order.

    Keys are ordered by ``(type name, value)`` so heterogeneous keys never
    raise ``TypeError`` and the order is deterministic.
    """
    return sorted(groups.items(), key=_key_order)


def group_by_key(pairs: Iterable[tuple[Any, Any]]) -> list[tuple[Any, list]]:
    """Sort-and-group, as the reduce-side merge does (:func:`sort_groups`
    order; a key's values keep the order of ``pairs``)."""
    return sort_groups(group_pairs(pairs))


def run_reducer(reducer: Reducer, grouped: Iterable[tuple[Any, list]],
                context: Context,
                drain: Callable[[Context], Any] = Context.drain) -> Any:
    """Execute one reducer over grouped pairs; returns what ``drain`` hands
    over — the output pairs unless told otherwise."""
    reducer.setup(context)
    for key, values in grouped:
        reducer.reduce(key, values, context)
    reducer.cleanup(context)
    return drain(context)


def combine(combiner_factory: Optional[Callable[[], Reducer]],
            pairs: list[tuple[Any, Any]], context: Context
            ) -> list[tuple[Any, Any]]:
    """Apply a combiner to map output (no-op when factory is None)."""
    if combiner_factory is None or not pairs:
        return pairs
    return run_reducer(combiner_factory(), group_by_key(pairs), context)


class KeyRun(NamedTuple):
    """One reduce partition of one map task's output, grouped by key.

    Three lists however many keys there are (not one list per key): the
    cluster keeps every run of a job alive until its last reduce is done.
    """

    keys: list      #: distinct keys, in first-emission order
    counts: list    #: ``counts[i]`` consecutive ``values`` belong to ``keys[i]``
    values: list    #: key-major; one key's values in emission order

    def pairs(self) -> Iterator[tuple[Any, Any]]:
        """The run's ``(key, value)`` pairs, for per-pair sizing (``zip``
        recycles its tuple when the consumer keeps no reference)."""
        return zip(chain.from_iterable(map(repeat, self.keys, self.counts)),
                   self.values)


def partition_groups(groups: dict[Any, Any], partitioner: Partitioner,
                     n_partitions: int, value: Any = MIXED) -> list[KeyRun]:
    """Split one map task's grouped output into a run per reduce partition
    (one partitioner call per distinct key).  ``groups`` maps a key to its
    values; given a ``value`` it maps a key to its number of pairs, each
    ``(key, value)`` (:meth:`Context.drain_counted`)."""
    runs = [KeyRun([], [], []) for _ in range(n_partitions)]
    partition = partitioner.partition
    if value is not MIXED:
        for key, count in groups.items():
            keys, counts, _values = runs[partition(key, n_partitions)]
            keys.append(key)
            counts.append(count)
        return [KeyRun(keys, counts, [value] * sum(counts))
                for keys, counts, _values in runs]
    for key, bucket in groups.items():
        keys, counts, values = runs[partition(key, n_partitions)]
        keys.append(key)
        counts.append(len(bucket))
        values += bucket
    return runs


def partition_bytes(runs: Sequence[KeyRun], sizeof: Callable[[Any], Any],
                    value: Any = MIXED) -> dict[int, float]:
    """``partition -> float(Σ sizeof(pair))`` over each run's pairs.

    ``sizeof`` is a pure function of the pair (a job's
    ``intermediate_sizeof``).  If every pair of ``runs`` carries ``value``,
    all of one key's pairs are one pair, so a run sizes each key once and
    sums ``count × size``.  That sum is exact when every size is an ``int``
    (integer sums do not round, in any order); a run with any other size
    (float, bool, NumPy) is summed per pair in pair order, as a mixed run
    is, so no float bit moves.
    """
    out = {}
    for p, run in enumerate(runs):
        if value is not MIXED:
            sizes = [sizeof((key, value)) for key in run.keys]
            if all(type(size) is int for size in sizes):
                out[p] = float(sum(map(mul, run.counts, sizes)))
                continue
        out[p] = float(sum(map(sizeof, run.pairs())))
    return out


def merge_runs(runs: Iterable[KeyRun]) -> Iterator[tuple[Any, list]]:
    """Reduce-side merge of one partition's runs, one per map task.

    Yields what :func:`group_by_key` yields for the runs' pairs laid end to
    end: keys in :func:`sort_groups` order, a key's values in run order and
    then emission order, in a fresh list per key.  A generator, so the
    merge happens when the reducer asks for its first key.
    """
    merged: dict[Any, list] = {}
    get = merged.get
    for keys, counts, values in runs:
        end = 0
        for key, count in zip(keys, counts):
            start, end = end, end + count
            bucket = get(key)
            if bucket is None:
                merged[key] = values[start:end]
            else:
                bucket += values[start:end]
    yield from sort_groups(merged)
