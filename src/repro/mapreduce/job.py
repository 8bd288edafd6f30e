"""Job specification.

A :class:`Job` bundles everything the engine needs: input/output paths,
factories for the mapper/combiner/reducer (fresh instance per task, as in
Hadoop), the partitioner, the reduce count, serialized-size estimators, and
the per-job CPU cost coefficients that calibrate how expensive this job's
user code is per byte/record.  :meth:`Job.resubmit_to` makes copies that
run their user code once per split between them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from operator import is_
from typing import Any, Callable, Optional, Sequence

from repro import constants as C
from repro.errors import JobConfigError
from repro.hdfs.client import default_sizeof
from repro.mapreduce.api import HashPartitioner, Mapper, Partitioner, Reducer

MapperFactory = Callable[[], Mapper]
ReducerFactory = Callable[[], Reducer]
SizeOf = Callable[[Any], int]


@dataclass
class Job:
    """One MapReduce job.

    ``intermediate_sizeof`` must be a pure function of the pair: the memo
    of :meth:`resubmit_to` and the per-key sizing of a constant-value map
    task (:func:`repro.mapreduce.api.partition_bytes`) both assume it.
    """

    name: str
    input_paths: Sequence[str]
    output_path: str
    mapper: MapperFactory
    reducer: Optional[ReducerFactory] = None
    combiner: Optional[ReducerFactory] = None
    partitioner: Partitioner = field(default_factory=HashPartitioner)
    n_reduces: int = 1
    #: Force the number of map tasks regardless of block count (MRBench's
    #: ``-maps`` flag); None means one map per block, Hadoop's default.
    force_num_maps: Optional[int] = None
    #: Serialized size of one intermediate (key, value) pair.
    intermediate_sizeof: SizeOf = default_sizeof
    #: Serialized size of one final output record.
    output_sizeof: SizeOf = default_sizeof
    #: CPU cost coefficients (core-seconds); calibrate per workload.
    map_cpu_per_byte: float = C.MAP_CPU_PER_BYTE
    map_cpu_per_record: float = 0.0
    reduce_cpu_per_byte: float = C.REDUCE_CPU_PER_BYTE
    reduce_cpu_per_record: float = 0.0
    #: Replication of the job output (1 in Hadoop for intermediate chains).
    output_replication: Optional[int] = None
    #: Free-form parameters surfaced through ``context.config``.
    params: dict = field(default_factory=dict)
    #: Functional results shared with :meth:`resubmit_to` copies, else None.
    _memo: Optional[dict] = field(default=None, init=False, repr=False,
                                  compare=False)

    def __post_init__(self) -> None:
        if not self.name:
            raise JobConfigError("job needs a name")
        if not self.input_paths:
            raise JobConfigError(f"job {self.name!r}: no input paths")
        if not self.output_path:
            raise JobConfigError(f"job {self.name!r}: no output path")
        if self.mapper is None:
            raise JobConfigError(f"job {self.name!r}: no mapper")
        if self.n_reduces < 0:
            raise JobConfigError(f"job {self.name!r}: n_reduces must be >= 0")
        if self.n_reduces == 0 and self.reducer is not None:
            raise JobConfigError(
                f"job {self.name!r}: reducer given but n_reduces == 0")
        if self.force_num_maps is not None and self.force_num_maps < 1:
            raise JobConfigError(
                f"job {self.name!r}: force_num_maps must be >= 1")

    @property
    def map_only(self) -> bool:
        return self.n_reduces == 0

    def resubmit_to(self, output_path: str) -> "Job":
        """This job definition again, writing to ``output_path``.

        This job and its copies share one memo of functional results: a
        task fed the very objects an earlier one computed from reuses its
        output and still pays every simulated cost (DESIGN.md §5 item 8).
        Swap a functional field on a copy and it silently stops hitting.
        """
        if self._memo is None:
            self._memo = {}
        copy = replace(self, output_path=output_path)
        copy._memo = self._memo
        return copy

    def _definition(self) -> tuple:
        return (self.mapper, self.combiner, self.reducer, self.partitioner,
                self.n_reduces, self.intermediate_sizeof, self.params)

    def _recall(self, key, *inputs):
        """What ``key`` memoises if made from these very objects, else None."""
        if self._memo is not None:
            held, result = self._memo.get(key, ((), None))
            inputs += self._definition()
            if len(held) == len(inputs) and all(map(is_, held, inputs)):
                return result
        return None

    def _remember(self, key, result, *inputs):
        """Memoise (and return) ``result``, holding on to ``inputs``."""
        if self._memo is not None:
            self._memo[key] = (inputs + self._definition(), result)
        return result
