"""LocalJobRunner: the pure-functional reference implementation.

Runs a :class:`~repro.mapreduce.job.Job` with no cluster, no simulator and
no timing — just map, combine, partition, sort, reduce over in-memory
records.  The cluster runner is property-tested to produce byte-identical
output, which is what makes the timed simulation trustworthy as a
*functional* reproduction (DESIGN.md §5, decision 1).
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.mapreduce.api import (Context, combine, group_pairs, run_mapper,
                                 run_reducer, sort_groups)
from repro.mapreduce.counters import Counters
from repro.mapreduce.job import Job


class LocalJobRunner:
    """In-process runner over explicit input records."""

    def __init__(self) -> None:
        self.counters = Counters()

    def run(self, job: Job, records: Sequence[tuple[Any, Any]]
            ) -> list[tuple[Any, Any]]:
        """Execute ``job`` over ``records``; returns the final output pairs
        ordered by reduce partition then key (Hadoop's part-file order)."""
        self.counters = Counters()
        map_ctx = Context(task_id=f"{job.name}-local-map",
                          counters=self.counters, config=job.params)
        pairs = run_mapper(job.mapper(), records, map_ctx)
        self.counters.incr("job", "map_output_records", len(pairs))
        pairs = combine(job.combiner, pairs, map_ctx)

        if job.map_only:
            return pairs

        # One partitioner call per distinct key, as Hadoop's contract
        # allows (a pure function of the key); a key's values keep pair order.
        partitions: list[dict[Any, list]] = [{} for _ in range(job.n_reduces)]
        partition = job.partitioner.partition
        for key, values in group_pairs(pairs).items():
            partitions[partition(key, job.n_reduces)][key] = values

        output: list[tuple[Any, Any]] = []
        for p, groups in enumerate(partitions):
            reduce_ctx = Context(task_id=f"{job.name}-local-reduce-{p}",
                                 counters=self.counters, config=job.params)
            output.extend(run_reducer(job.reducer(), sort_groups(groups),
                                      reduce_ctx))
        self.counters.incr("job", "reduce_output_records", len(output))
        return output
