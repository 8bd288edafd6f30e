"""Wordcount, exactly as the paper describes it:

    "Each mapper takes a line as input and breaks it into words.  It then
    emits a key/value pair of the word and 1.  Each reducer sums the counts
    for each word and emits a single key/value with the word and sum."

Note the paper's description has **no combiner** — intermediate volume is
proportional to the input, which is what makes Wordcount network-heavy and
cross-domain-sensitive in Fig. 2.  A combiner can still be enabled through
``wordcount_job(use_combiner=True)`` (an ablation).
"""

from __future__ import annotations

from typing import Sequence

from repro.mapreduce.api import Context, Mapper, Reducer
from repro.mapreduce.job import Job


class WordCountMapper(Mapper):
    """line -> (word, 1) for every whitespace-separated word."""

    def map(self, key, value, context: Context) -> None:
        context.emit_many(str(value).split(), 1)


class WordCountReducer(Reducer):
    """(word, [counts]) -> (word, sum)."""

    def reduce(self, key, values, context: Context) -> None:
        context.emit(key, sum(values))


def _pair_sizeof(pair) -> int:
    return len(pair[0]) + 6  # word bytes + separator + varint count


def line_record_sizeof(record) -> int:
    """Serialized size of one (offset, line) input record."""
    _offset, line = record
    return len(line) + 1


def wordcount_job(input_path: str, output_path: str, n_reduces: int = 1,
                  use_combiner: bool = False, volume_scale: int = 1) -> Job:
    """Build the Wordcount job over line records ``(offset, line)``.

    ``volume_scale`` lets experiments simulate paper-scale byte volumes
    while materializing a 1/scale sample of the records: every serialized
    size (and therefore every I/O and CPU charge) is multiplied by the
    scale, while the functional computation runs on the sample.  The input
    file must have been uploaded with the matching scaled ``sizeof``
    (:func:`scaled_line_sizeof`).
    """
    return Job(
        name="wordcount",
        input_paths=[input_path],
        output_path=output_path,
        mapper=WordCountMapper,
        reducer=WordCountReducer,
        combiner=WordCountReducer if use_combiner else None,
        n_reduces=n_reduces,
        intermediate_sizeof=lambda pair: (len(pair[0]) + 6) * volume_scale,
        output_sizeof=_pair_sizeof,
        # Tokenizing text is cheap per byte; calibrated to ~13 MB/s/core,
        # hadoop-0.20-era Wordcount throughput.
        map_cpu_per_byte=7.5e-8,
        reduce_cpu_per_byte=4.0e-8,
    )


def scaled_line_sizeof(volume_scale: int):
    """``sizeof`` for uploading a 1/scale corpus sample as a full corpus."""
    return lambda record: line_record_sizeof(record) * volume_scale


def lines_as_records(lines: Sequence[str]) -> list[tuple[int, str]]:
    """Hadoop TextInputFormat records: (byte offset, line)."""
    records = []
    offset = 0
    for line in lines:
        records.append((offset, line))
        offset += len(line) + 1
    return records
