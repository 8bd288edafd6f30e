"""``LatencyHistogram``'s C-level bin passes against per-bin loops.

``merge``/``subtract`` map ``add``/``sub`` over the counts, ``quantile``
bisects the running count and ``fraction_above`` bisects the bin edges.
The reference functions below are the per-bin Python loops they replace;
every answer must be the same bits.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.telemetry.metrics import (_EDGES, _LOG_LO, _SCALE, HI, LO, N_BINS,
                                     LatencyHistogram)


def _edge(index):
    return math.exp(_LOG_LO + (index + 1) / _SCALE)


def ref_quantile(hist, q):
    if hist.count == 0:
        return 0.0
    rank = max(1, math.ceil(q * hist.count))
    seen = 0
    for index, count in enumerate(hist.counts):
        seen += count
        if seen >= rank:
            if index == N_BINS - 1:
                return hist.max_seen
            return min(_edge(index), hist.max_seen)
    return hist.max_seen


def ref_fraction_above(hist, threshold):
    if hist.count == 0:
        return 0.0
    bad = 0
    for index, count in enumerate(hist.counts):
        if count and _edge(index) > threshold:
            bad += count
    return bad / hist.count


def ref_merge(into, other):
    counts = list(into.counts)
    for index, count in enumerate(other.counts):
        counts[index] += count
    return counts


def ref_subtract(into, other):
    counts = list(into.counts)
    for index, count in enumerate(other.counts):
        counts[index] -= count
    return counts


def test_edges_are_todays_formula_bit_for_bit():
    assert len(_EDGES) == N_BINS
    for index in range(N_BINS):
        assert _EDGES[index] == _edge(index)
        assert LatencyHistogram().edge(index) == _edge(index)
    assert list(_EDGES) == sorted(set(_EDGES))  # strictly increasing


#: Samples that reach every kind of bin: zero, at and below ``LO``, exact
#: bin edges (and their neighbours), ordinary values and the overflow bin.
_samples = st.one_of(
    st.sampled_from([0.0, LO, LO / 2, HI, HI * 3, 1e9]),
    st.integers(0, N_BINS - 1).map(lambda i: _EDGES[i]),
    st.integers(0, N_BINS - 1).map(lambda i: math.nextafter(_EDGES[i], 0.0)),
    st.floats(0.0, 2 * HI, allow_nan=False, allow_infinity=False))

#: Thresholds: bin edges (equal to an edge is not above it), samples and
#: the extremes.
_thresholds = st.one_of(
    st.integers(0, N_BINS - 1).map(lambda i: _EDGES[i]),
    st.sampled_from([0.0, -1.0, LO, HI, math.inf, math.nan]),
    st.floats(0.0, 2 * HI, allow_nan=False, allow_infinity=False))

_quantiles = st.one_of(st.sampled_from([0.0, 0.5, 0.99, 1.0]),
                       st.floats(0.0, 1.0))


def _hist(values):
    hist = LatencyHistogram()
    for value in values:
        hist.observe(value)
    return hist


def _same(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


@settings(max_examples=300, deadline=None)
@given(values=st.lists(_samples, max_size=60),
       thresholds=st.lists(_thresholds, min_size=1, max_size=6),
       quantiles=st.lists(_quantiles, min_size=1, max_size=6))
def test_quantile_and_fraction_above_match_the_bin_loops(values, thresholds,
                                                         quantiles):
    hist = _hist(values)
    thresholds += [_EDGES[index] for index, count in enumerate(hist.counts)
                   if count]
    for threshold in thresholds:
        assert hist.fraction_above(threshold) == ref_fraction_above(
            hist, threshold)
    for q in quantiles:
        assert _same(hist.quantile(q), ref_quantile(hist, q))


@settings(max_examples=200, deadline=None)
@given(first=st.lists(_samples, max_size=40),
       second=st.lists(_samples, max_size=40),
       q=_quantiles, threshold=_thresholds)
def test_merge_and_subtract_match_the_bin_loops(first, second, q, threshold):
    a, b = _hist(first), _hist(second)
    merged_ref = ref_merge(a, b)
    a.merge(b)
    assert a.counts == merged_ref and len(a.counts) == N_BINS
    assert a.count == len(first) + len(second) == sum(a.counts)
    assert _same(a.quantile(q), ref_quantile(a, q))
    assert a.fraction_above(threshold) == ref_fraction_above(a, threshold)
    subtracted_ref = ref_subtract(a, b)
    a.subtract(b)
    assert a.counts == subtracted_ref == _hist(first).counts
    assert a.count == len(first)
    assert a.fraction_above(threshold) == ref_fraction_above(a, threshold)


def test_empty_and_overflow_only_histograms():
    empty = LatencyHistogram()
    for q in (0.0, 0.5, 1.0):
        assert empty.quantile(q) == ref_quantile(empty, q) == 0.0
    assert empty.fraction_above(1.0) == ref_fraction_above(empty, 1.0) == 0.0
    over = _hist([HI * 2, HI * 5])
    assert over.counts[N_BINS - 1] == 2
    assert over.quantile(0.5) == ref_quantile(over, 0.5) == HI * 5
    assert over.fraction_above(HI) == ref_fraction_above(over, HI) == 1.0
    assert over.fraction_above(math.inf) == 0.0
