"""Labelled metrics: counters, histograms, and their registry.

The registry is the quantitative half of the telemetry subsystem (spans
being the structural half).  Instrumented layers record, e.g.::

    metrics.counter("hdfs.bytes.written").inc(f.size)
    metrics.histogram("mapreduce.task.duration",
                      labels={"phase": "map", "job": job.name}).observe(dt)

Metric names are dot-namespaced like trace-event kinds; labels are plain
``str → str`` mappings.  One *metric family* (a name plus help text and a
type) owns one child per distinct label set.  Everything is in-memory and
deterministic — there is no background aggregation thread, because values
only ever change inside the single-threaded simulation.

:class:`LatencyHistogram` is the one distribution type: log-binned,
mergeable and subtractable.  A registry histogram child is one, and so are
the service tier's latencies and the time-series store's histogram deltas.

Exporters live in :mod:`repro.telemetry.export` (Prometheus text, CSV).
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from operator import add, sub
from typing import Iterator, Mapping, Optional

from repro.errors import ConfigError

LabelSet = tuple[tuple[str, str], ...]

_INF = math.inf

#: The one histogram layout: ``N_BINS`` log-spaced bins from ``LO`` to
#: ``HI`` seconds, the last one the overflow bin (everything above ``HI``).
LO = 0.1
HI = 1e5
N_BINS = 256
_LOG_LO = math.log(LO)
_SCALE = (N_BINS - 1) / (math.log(HI) - _LOG_LO)
#: Upper edge of every bin, increasing: the bin loops below run as
#: C-level ``bisect``/``map``/``accumulate`` over it, with the same results.
_EDGES = tuple(math.exp(_LOG_LO + (index + 1) / _SCALE)
               for index in range(N_BINS))


def _labelset(labels: Optional[Mapping[str, str]]) -> LabelSet:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """Monotonically increasing value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ConfigError(f"counter increment must be >= 0, got {amount}")
        self.value += amount


class LatencyHistogram:
    """Fixed log-spaced latency histogram with deterministic quantiles.

    ``quantile(q)`` returns the *upper edge* of the bin holding the q-th
    sample — a deterministic over-estimate with bounded relative error
    (``growth - 1``), independent of arrival order.  Exact values are
    deliberately not kept: at ~1M samples a sorted list dominates memory
    and wall time, while 256 bin counters do not — and two same-seed runs
    quantise identically (every histogram shares the module's bin layout).
    ``count``, ``total``, ``min_seen`` and ``max_seen`` are exact; the last
    bin is the overflow bin (everything above ``HI``).  Mergeable and
    subtractable, so windows of them roll.
    """

    def __init__(self) -> None:
        self.counts = [0] * N_BINS
        self.count = 0
        self.total = 0.0
        self.min_seen = _INF
        self.max_seen = 0.0

    def edge(self, index: int) -> float:
        """Upper edge of bin ``index``."""
        return _EDGES[index]

    def observe(self, value: float, *also: "LatencyHistogram") -> None:
        """Record ``value`` here and in every histogram of ``also``: the
        bin is computed once for all of them.  An invalid value touches
        none of them."""
        if not 0 <= value < _INF:  # negative, NaN or infinite
            raise ConfigError(f"latency must be finite and >= 0, "
                              f"got {value!r}")
        if value <= LO:
            index = 0
        else:
            index = int((math.log(value) - _LOG_LO) * _SCALE)
            if index >= N_BINS:
                index = N_BINS - 1
        self.count += 1
        self.total += value
        if value > self.max_seen:
            self.max_seen = value
        if value < self.min_seen:
            self.min_seen = value
        self.counts[index] += 1
        for hist in also:
            hist.count += 1
            hist.total += value
            if value > hist.max_seen:
                hist.max_seen = value
            if value < hist.min_seen:
                hist.min_seen = value
            hist.counts[index] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Upper edge of the bin containing the q-th sample (0 if empty)."""
        if not 0.0 <= q <= 1.0:
            raise ConfigError(f"q must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        rank = max(1, math.ceil(q * self.count))
        index = bisect_left(list(accumulate(self.counts)), rank)
        if index >= N_BINS - 1:
            return self.max_seen  # overflow bin: exact max
        return min(_EDGES[index], self.max_seen)

    @property
    def p50(self) -> float:
        return self.quantile(0.50)

    @property
    def p99(self) -> float:
        return self.quantile(0.99)

    def fraction_above(self, threshold: float) -> float:
        """Fraction of samples whose *bin* lies above ``threshold``.

        A sample counts as "bad" when the upper edge of its bin exceeds
        the threshold — consistent with :meth:`quantile`, which also
        answers in upper edges, so ``fraction_above(quantile(q)) <= 1-q``
        deterministically.  Returns 0.0 when empty.
        """
        if self.count == 0:
            return 0.0
        return sum(self.counts[bisect_right(_EDGES, threshold):]) / self.count

    def merge(self, other: "LatencyHistogram") -> None:
        self.counts = list(map(add, self.counts, other.counts))
        self.count += other.count
        self.total += other.total
        self.min_seen = min(self.min_seen, other.min_seen)
        self.max_seen = max(self.max_seen, other.max_seen)

    def subtract(self, other: "LatencyHistogram") -> None:
        """Undo an earlier :meth:`merge` of ``other`` (counts, ``count``
        and ``total``).  ``min_seen`` and ``max_seen`` are left alone — an
        extreme cannot be un-merged; a caller that knows the remaining
        parts sets it."""
        self.counts = list(map(sub, self.counts, other.counts))
        self.count -= other.count
        self.total -= other.total


@dataclass
class MetricFamily:
    """One metric name: its type, help text, and per-label-set children."""

    name: str
    kind: str                    # "counter" | "histogram"
    help: str = ""
    children: dict[LabelSet, object] = field(default_factory=dict)

    def child(self, labels: LabelSet):
        try:
            return self.children[labels]
        except KeyError:
            made = {"counter": Counter, "histogram": LatencyHistogram}[
                self.kind]()
            self.children[labels] = made
            return made

    def items(self) -> Iterator[tuple[LabelSet, object]]:
        return iter(sorted(self.children.items()))


class MetricsRegistry:
    """All metric families of one simulated platform."""

    def __init__(self) -> None:
        self.families: dict[str, MetricFamily] = {}

    # -- family accessors -----------------------------------------------------
    def _family(self, name: str, kind: str, help: str) -> MetricFamily:
        family = self.families.get(name)
        if family is None:
            family = MetricFamily(name=name, kind=kind, help=help)
            self.families[name] = family
        elif family.kind != kind:
            raise ConfigError(
                f"metric {name!r} already registered as {family.kind}, "
                f"requested {kind}")
        return family

    def counter(self, name: str, help: str = "",
                labels: Optional[Mapping[str, str]] = None) -> Counter:
        return self._family(name, "counter", help).child(_labelset(labels))

    def histogram(self, name: str, help: str = "",
                  labels: Optional[Mapping[str, str]] = None
                  ) -> LatencyHistogram:
        return self._family(name, "histogram", help).child(_labelset(labels))

    # -- reading --------------------------------------------------------------
    def sum(self, name: str) -> float:
        """Sum a counter family across its children (0.0 when absent)."""
        family = self.families.get(name)
        if family is None:
            return 0.0
        total = 0.0
        for child in family.children.values():
            total += getattr(child, "value", 0.0)
        return total
