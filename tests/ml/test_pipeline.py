"""Tests for the canopy-seeded k-means pipeline and nmon export."""

import numpy as np
import pytest

from repro.errors import MonitorError
from repro.ml import CanopyKMeansPipeline, LocalExecutor, points_as_records
from repro.monitor.export import parse_nmon, write_nmon
from repro.monitor.nmon import SERIES, record_sample, vm_buckets
from repro.telemetry.timeseries import TimeSeriesStore

CENTERS = np.array([[0.0, 0.0], [10.0, 10.0], [-10.0, 8.0]])


def blobs(seed=0):
    rng = np.random.default_rng(seed)
    return np.vstack([rng.normal(c, 0.6, size=(40, 2)) for c in CENTERS])


def test_pipeline_seeds_kmeans_from_canopies():
    points = blobs()
    executor = LocalExecutor({"/in": points_as_records(points)})
    result = CanopyKMeansPipeline(t1=6.0, t2=3.0).run(executor, "/in")
    assert result.canopy.k == 3
    assert result.kmeans.k == 3
    for truth in CENTERS:
        assert min(np.linalg.norm(m.center_array() - truth)
                   for m in result.models) < 1.0
    assert len(result.assignments) == len(points)
    assert result.runtime_s == result.canopy.runtime_s + \
        result.kmeans.runtime_s


def test_pipeline_max_k_caps_seeds():
    points = blobs()
    executor = LocalExecutor({"/in": points_as_records(points)})
    # Very tight thresholds make many canopies; max_k trims them.
    result = CanopyKMeansPipeline(t1=1.5, t2=0.7, max_k=3).run(
        executor, "/in")
    assert result.canopy.k > 3
    assert result.kmeans.k == 3


def test_pipeline_rejects_empty_canopy_stage():
    executor = LocalExecutor({"/in": []})
    with pytest.raises(Exception):
        CanopyKMeansPipeline(t1=2.0, t2=1.0).run(executor, "/in")


# --- nmon export --------------------------------------------------------------

def sample_store():
    store = TimeSeriesStore(step=5.0)
    for i in range(4):
        record_sample(store, "vm-test", float(i * 5),
                      (0.25 * i, 0.4, i, 1000.0 * i, 10.0 * i, 20.0 * i))
    return store


def rows(store):
    columns = [vm_buckets(store, "vm-test", name) for name in SERIES]
    return [(row[0].last_at, [b.last for b in row]) for row in zip(*columns)]


def test_nmon_roundtrip():
    original = sample_store()
    text = write_nmon(original, "vm-test")
    assert text.startswith("AAA,host,vm-test")
    parsed = TimeSeriesStore(step=5.0)
    assert parse_nmon(text, parsed) == "vm-test"
    assert len(rows(parsed)) == len(rows(original)) == 4
    for (t_a, a), (t_b, b) in zip(rows(original), rows(parsed)):
        assert t_b == pytest.approx(t_a, abs=1e-3)
        assert b == pytest.approx(a, abs=1e-4)


def test_nmon_export_requires_samples():
    with pytest.raises(MonitorError):
        write_nmon(TimeSeriesStore(), "empty")


def test_nmon_parse_requires_header():
    with pytest.raises(MonitorError):
        parse_nmon("ZZZZ,T0001,0.0\n", TimeSeriesStore())


def test_nmon_parse_detects_missing_sections():
    text = "AAA,host,x\nZZZZ,T0001,0.0\nCPU_ALL,T0001,10.0\n"
    with pytest.raises(MonitorError):
        parse_nmon(text, TimeSeriesStore())
