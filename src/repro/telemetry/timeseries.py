"""Bounded time-series store behind the metrics registry.

The registry (:mod:`repro.telemetry.metrics`) answers "what is the value
*now*"; this module answers "how did it evolve".  A
:class:`TimeSeriesStore` holds one :class:`TimeSeries` per
``(name, labels)`` pair, each a fixed set of **ring buffers over
sim-time buckets**:

* the **raw tier** buckets samples at ``step`` seconds;
* the **×10** and **×100 tiers** bucket the same samples at
  ``10*step`` and ``100*step`` — every sample updates every tier, so a
  coarse bucket is exactly the merge of its fine buckets without any
  eviction-time compaction;
* every bucket keeps the five *mergeable* aggregates
  ``min / max / sum / count / last`` (plus the exact time of the last
  sample).

Memory is bounded by construction: ``capacity`` buckets per tier per
series, old buckets overwritten as sim-time advances.  Retention grows
with coarseness — at the default ``step=5 s, capacity=360`` the raw tier
remembers 30 sim-minutes, the ×100 tier 50 sim-hours.  A bucket is
*live* while its index is within ``capacity`` of the tier's newest;
reads walk the live indices a window covers (O(buckets in range), O(1)
for the newest), and a sample older than a tier retains is refused by
that tier and counted in :attr:`TimeSeries.late_samples`.

Everything is deterministic: samples only arrive from the
single-threaded simulation, floats are fixed-formatted into
:meth:`digest`, and two same-seed runs must produce byte-identical
series digests (asserted by tests and the CI ``campaign`` job).

Histogram-valued series (:class:`HistogramSeries`) hold one mergeable
:class:`~repro.telemetry.metrics.LatencyHistogram` per bucket, giving
``quantile_over_time`` with bounded relative error at bounded memory.

The :class:`~repro.telemetry.facade.Telemetry` facade wires a store to
each cluster as ``telemetry.timeseries``.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterator, Mapping, Optional

from repro.digest import Digest
from repro.errors import ConfigError
from repro.telemetry.metrics import (Counter, LabelSet, LatencyHistogram,
                                     _labelset)

if TYPE_CHECKING:  # pragma: no cover
    from repro.telemetry.metrics import MetricsRegistry

#: Tier multipliers: raw, 10x, 100x downsampling.
TIER_MULTIPLIERS = (1, 10, 100)


def _fmt(value: float) -> str:
    """Fixed float formatting for digests (repr is stable but verbose)."""
    return f"{value:.9g}"


class Bucket:
    """Mergeable aggregates of the samples that fell into one interval."""

    __slots__ = ("index", "count", "total", "min", "max", "last", "last_at")

    def __init__(self, index: int):
        self.index = index
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.last = 0.0
        self.last_at = 0.0

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def line(self, start: float) -> str:
        """Digest row with fixed float formatting."""
        return (f"{_fmt(start)}|{self.count}|{_fmt(self.total)}|"
                f"{_fmt(self.min)}|{_fmt(self.max)}|{_fmt(self.last)}|"
                f"{_fmt(self.last_at)}")


class _Tier:
    """One resolution: a ring of ``capacity`` buckets of width ``width``.

    A bucket is **live** iff its index lies within ``capacity`` of the
    newest index the tier has seen; bucket ``i`` can only sit in slot
    ``(i - base) % capacity``, ``base`` being the first bucket's index, so
    every read is an index walk, never a scan.  The ring grows on demand
    up to ``capacity`` slots: a short series holds only the slots it used.
    ``make(index)`` builds the bucket payload (anything with ``.index``).
    """

    __slots__ = ("width", "capacity", "slots", "base", "newest", "make")

    def __init__(self, width: float, capacity: int, make=Bucket):
        self.width = width
        self.capacity = capacity
        self.slots: list = []
        self.base = 0
        #: The highest-index bucket ever created (None while empty).
        self.newest = None
        self.make = make

    def bucket_for(self, at: float):
        """The live bucket covering ``at``, created on demand; ``None``
        when ``at`` is older than the tier retains (a late sample must
        not evict the newer bucket that owns its slot)."""
        index = int(at // self.width)
        newest = self.newest
        if newest is None:
            self.base = index
        elif index == newest.index:
            return newest
        elif index <= newest.index - self.capacity:
            return None
        slots = self.slots
        slot = (index - self.base) % self.capacity
        if slot >= len(slots):
            slots.extend([None] * (slot + 1 - len(slots)))
        bucket = slots[slot]
        if bucket is None or bucket.index != index:
            bucket = slots[slot] = self.make(index)
            if newest is None or index > newest.index:
                self.newest = bucket
        return bucket

    def buckets(self, t0: float = -math.inf, t1: float = math.inf) -> list:
        """Live buckets whose interval intersects ``[t0, t1)`` in time
        order (ring walked by bucket index): O(buckets in range)."""
        if self.newest is None:
            return []
        width, capacity, slots = self.width, self.capacity, self.slots
        base, used = self.base, len(slots)
        # Candidate indices: the window's, one generous on each side,
        # clamped (in floats, so infinite ends are fine) to the retained
        # interval.  The float interval test below decides.
        last = self.newest.index
        first = last - capacity + 1
        first_s, end_s = first * width, (last + 1) * width
        lo = int(min(max(t0, first_s), end_s) // width) - 1
        hi = int(max(min(t1, end_s), first_s) // width) + 1
        out = []
        for index in range(max(lo, first), min(hi, last) + 1):
            slot = (index - base) % capacity
            bucket = slots[slot] if slot < used else None
            start = index * width
            if (bucket is not None and bucket.index == index
                    and not (start + width <= t0 or start >= t1)):
                out.append(bucket)
        return out

    def sums(self, first: int, last: int) -> tuple[float, int]:
        """Summed ``total`` and ``count`` of the live buckets with index in
        ``[first, last]``, added in ascending index order (the order
        :meth:`buckets` returns them); builds no list."""
        newest = self.newest
        if newest is None:
            return 0.0, 0
        capacity, slots, base = self.capacity, self.slots, self.base
        used = len(slots)
        total, count = 0.0, 0
        for index in range(max(first, newest.index - capacity + 1),
                           min(last, newest.index) + 1):
            slot = (index - base) % capacity
            bucket = slots[slot] if slot < used else None
            if bucket is not None and bucket.index == index:
                total += bucket.total
                count += bucket.count
        return total, count

    def retention_s(self) -> float:
        return self.width * self.capacity


class TimeSeries:
    """One named series: the same samples at three resolutions."""

    __slots__ = ("name", "labels", "step", "tiers", "_late")

    def __init__(self, name: str, labels: LabelSet = (),
                 step: float = 5.0, capacity: int = 360):
        if step <= 0:
            raise ConfigError(f"step must be > 0, got {step}")
        if capacity < 2:
            raise ConfigError(f"capacity must be >= 2, got {capacity}")
        self.name = name
        self.labels = labels
        self.step = float(step)
        self.tiers = tuple(_Tier(self.step * mult, capacity)
                           for mult in TIER_MULTIPLIERS)
        self._late = 0

    @property
    def late_samples(self) -> int:
        """Samples at least one tier refused as older than it retains."""
        return self._late

    # -- write -----------------------------------------------------------
    def observe(self, at: float, value: float) -> None:
        """Record one sample at sim-time ``at`` into every tier that
        still retains that instant."""
        value = float(value)
        late = False
        for tier in self.tiers:
            bucket = tier.bucket_for(at)
            if bucket is None:
                late = True
                continue
            bucket.count += 1
            bucket.total += value
            if value < bucket.min:
                bucket.min = value
            if value > bucket.max:
                bucket.max = value
            bucket.last = value
            bucket.last_at = at
        if late:
            self._late += 1

    # -- read ------------------------------------------------------------
    def range(self, t0: float, t1: float,
              tier: int) -> list[tuple[float, Bucket]]:
        """Buckets of ``tier`` whose interval intersects ``[t0, t1)`` in
        time order.  Costs O(buckets in range), whatever the capacity."""
        chosen = self.tiers[tier]
        return [(bucket.index * chosen.width, bucket)
                for bucket in chosen.buckets(t0, t1)]

    def latest(self, n: int = 1, tier: int = 0) -> list[Bucket]:
        """The ``n`` most recent live buckets of a tier, oldest first
        (O(1) for the newest alone)."""
        chosen = self.tiers[tier]
        if n == 1:
            return [chosen.newest] if chosen.newest is not None else []
        return chosen.buckets()[-n:]

    def trailing_mean(self, now: float, span: float) -> float:
        """Sample-weighted mean over the trailing window ``(now - span,
        now]`` (0.0 when empty).

        At bucket grain: the bucket holding ``now`` is in, the one holding
        ``now - span`` is out — exact for samples on bucket edges, as a
        sampler every ``step`` records them.  Reads the finest tier whose
        retention covers ``span``, adding buckets in ascending order.
        """
        tier = next((t for t in self.tiers if span <= t.retention_s()),
                    self.tiers[-1])
        total, count = tier.sums(int((now - span) // tier.width) + 1,
                                 int(now // tier.width))
        return total / count if count else 0.0

    # -- determinism -----------------------------------------------------
    def digest(self) -> str:
        """Stable content digest over all tiers' live buckets."""
        h = Digest()
        self._hash_into(h)
        return h.hex()

    def _hash_into(self, h) -> None:
        labels = ",".join(f"{k}={v}" for k, v in self.labels)
        h.update(f"series|{self.name}|{labels}|{_fmt(self.step)}\n")
        for ti, tier in enumerate(self.tiers):
            for bucket in tier.buckets():
                start = bucket.index * tier.width
                h.update(f"t{ti}|{bucket.line(start)}\n")

    def __repr__(self) -> str:  # pragma: no cover
        live = sum(len(t.buckets()) for t in self.tiers)
        return (f"<TimeSeries {self.name} labels={dict(self.labels)} "
                f"step={self.step} buckets={live}>")


class _HistBucket:
    """One interval's merged latency histogram."""

    __slots__ = ("index", "hist")

    def __init__(self, index: int):
        self.index = index
        self.hist = LatencyHistogram()


class HistogramSeries:
    """Latency-histogram-valued series: one mergeable histogram per bucket.

    Buckets hold :class:`~repro.telemetry.metrics.LatencyHistogram` deltas
    (what was observed *during* that interval), so
    :meth:`quantile_over_time` is an exact merge of the covered
    intervals.  The rings are the scalar series' (same liveness rule,
    same index walk); only the raw and ×10 tiers are kept — a histogram
    bucket is ~256 ints, two tiers bound memory at the same order as a
    scalar series' three.
    """

    __slots__ = ("name", "labels", "step", "tiers")

    TIERS = (1, 10)

    def __init__(self, name: str, labels: LabelSet = (),
                 step: float = 5.0, capacity: int = 360):
        if step <= 0:
            raise ConfigError(f"step must be > 0, got {step}")
        self.name = name
        self.labels = labels
        self.step = float(step)
        self.tiers = tuple(_Tier(self.step * mult, capacity, _HistBucket)
                           for mult in self.TIERS)

    def observe(self, at: float, hist: LatencyHistogram) -> None:
        """Merge one interval's histogram delta into every tier that
        still retains ``at``."""
        if hist.count == 0:
            return
        for tier in self.tiers:
            bucket = tier.bucket_for(at)
            if bucket is not None:
                bucket.hist.merge(hist)

    def merged_over(self, t0: float, t1: float,
                    tier: int = 0) -> LatencyHistogram:
        """One histogram covering every bucket intersecting ``[t0, t1)``."""
        merged = LatencyHistogram()
        for bucket in self.tiers[tier].buckets(t0, t1):
            merged.merge(bucket.hist)
        return merged

    def quantile_over_time(self, q: float, t0: float, t1: float,
                           tier: int = 0) -> float:
        """q-quantile of everything observed in ``[t0, t1)``."""
        return self.merged_over(t0, t1, tier).quantile(q)

    def digest(self) -> str:
        h = Digest()
        self._hash_into(h)
        return h.hex()

    def _hash_into(self, h) -> None:
        labels = ",".join(f"{k}={v}" for k, v in self.labels)
        h.update(f"hseries|{self.name}|{labels}|{_fmt(self.step)}\n")
        for ti, tier in enumerate(self.tiers):
            for bucket in tier.buckets():
                hist = bucket.hist
                counts = ",".join(str(c) for c in hist.counts if c) or "0"
                h.update(f"t{ti}|{bucket.index}|{hist.count}|"
                         f"{_fmt(hist.total)}|{_fmt(hist.max_seen)}|"
                         f"{counts}\n")


class TimeSeriesStore:
    """All time series of one scope.

    Construction is cheap and passive: a store schedules nothing, so it
    never keeps the simulation alive.  ``sim`` supplies the default sample
    time; with a ``registry`` wired (the facade does both),
    :meth:`sample_registry` snapshots every counter into
    same-named series — the historical view of the live metrics.
    """

    def __init__(self, sim=None, registry: Optional["MetricsRegistry"] = None,
                 step: float = 5.0, capacity: int = 360):
        if capacity < 2:
            raise ConfigError(f"capacity must be >= 2, got {capacity}")
        self.sim = sim
        self.registry = registry
        self.capacity = capacity
        self._series: dict[tuple[str, LabelSet], TimeSeries] = {}
        self._hist_series: dict[tuple[str, LabelSet], HistogramSeries] = {}
        self.step = step
        self.samples_taken = 0

    @property
    def step(self) -> float:
        """Raw-tier bucket width and the nmon monitor's sampling interval;
        fixed once series exist."""
        return self._step

    @step.setter
    def step(self, value: float) -> None:
        if value <= 0:
            raise ConfigError(f"step must be > 0, got {value}")
        if len(self) and value != self._step:
            raise ConfigError(f"store already holds series at step "
                              f"{self._step:g}; cannot change it to {value}")
        self._step = float(value)

    # -- series access ---------------------------------------------------
    def series(self, name: str,
               labels: Optional[Mapping[str, str]] = None) -> TimeSeries:
        key = (name, _labelset(labels))
        made = self._series.get(key)
        if made is None:
            made = TimeSeries(name, key[1], step=self.step,
                              capacity=self.capacity)
            self._series[key] = made
        return made

    def histogram_series(self, name: str,
                         labels: Optional[Mapping[str, str]] = None
                         ) -> HistogramSeries:
        key = (name, _labelset(labels))
        made = self._hist_series.get(key)
        if made is None:
            made = HistogramSeries(name, key[1], step=self.step,
                                   capacity=self.capacity)
            self._hist_series[key] = made
        return made

    def get(self, name: str, labels: Optional[Mapping[str, str]] = None
            ) -> Optional[TimeSeries]:
        return self._series.get((name, _labelset(labels)))

    def items(self) -> Iterator[tuple[tuple[str, LabelSet], TimeSeries]]:
        return iter(sorted(self._series.items()))

    def histogram_items(self) -> Iterator[
            tuple[tuple[str, LabelSet], HistogramSeries]]:
        return iter(sorted(self._hist_series.items()))

    def __len__(self) -> int:
        return len(self._series) + len(self._hist_series)

    # -- write -----------------------------------------------------------
    def record(self, name: str, value: float,
               labels: Optional[Mapping[str, str]] = None,
               at: Optional[float] = None) -> None:
        """Record one scalar sample (``at`` defaults to sim now)."""
        if at is None:
            at = self.sim.now if self.sim is not None else 0.0
        self.series(name, labels).observe(at, value)

    def record_histogram(self, name: str, hist: LatencyHistogram,
                         labels: Optional[Mapping[str, str]] = None,
                         at: Optional[float] = None) -> None:
        """Merge one interval's latency-histogram delta into a series."""
        if at is None:
            at = self.sim.now if self.sim is not None else 0.0
        self.histogram_series(name, labels).observe(at, hist)

    # -- read ------------------------------------------------------------
    def quantile_over_time(self, name: str, q: float, t0: float, t1: float,
                           labels: Optional[Mapping[str, str]] = None
                           ) -> float:
        made = self._hist_series.get((name, _labelset(labels)))
        return made.quantile_over_time(q, t0, t1) if made is not None \
            else 0.0

    # -- registry sampling -----------------------------------------------
    def sample_registry(self, at: Optional[float] = None) -> int:
        """Snapshot every counter child into a same-named series.

        Returns the number of samples recorded.  Metric histograms are
        skipped — a registry histogram is cumulative since the run began,
        while a histogram series merges interval deltas; record those
        explicitly via :meth:`record_histogram`.
        """
        if self.registry is None:
            raise ConfigError("store has no metrics registry to sample")
        if at is None:
            at = self.sim.now if self.sim is not None else 0.0
        n = 0
        for name in sorted(self.registry.families):
            family = self.registry.families[name]
            if family.kind == "histogram":
                continue
            for labelset, child in family.items():
                assert isinstance(child, Counter)
                key = (name, labelset)
                made = self._series.get(key)
                if made is None:
                    made = TimeSeries(name, labelset, step=self.step,
                                      capacity=self.capacity)
                    self._series[key] = made
                made.observe(at, child.value)
                n += 1
        self.samples_taken += n
        return n

    # -- determinism -----------------------------------------------------
    def digest(self) -> str:
        """Stable content digest over every series' every live bucket."""
        h = Digest()
        for _, made in self.items():
            made._hash_into(h)
        for _, made in self.histogram_items():
            made._hash_into(h)
        return h.hex()

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<TimeSeriesStore series={len(self._series)} "
                f"hist={len(self._hist_series)} step={self.step}>")
