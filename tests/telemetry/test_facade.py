"""Facade tests: ownership, deprecations, and the tuner's telemetry path."""

import pytest

from repro.config import PlatformConfig
from repro.errors import MonitorError, TunerError
from repro.platform import ClusterSpec, VHadoopPlatform
from repro.telemetry import Telemetry
from repro.tuner import IncreaseSlotsWhenCpuIdleRule, MapReduceTuner


def make(seed=5, n=4):
    platform = VHadoopPlatform(PlatformConfig(n_hosts=2, seed=seed))
    cluster = platform.provision_cluster("fac", ClusterSpec.single_host(n))
    return platform, cluster


def test_cluster_and_platform_expose_one_telemetry_handle():
    platform, cluster = make()
    assert isinstance(cluster.telemetry, Telemetry)
    assert platform.telemetry is platform.datacenter.telemetry
    # The cluster facade shares the platform's tracer and registry.
    assert cluster.telemetry.tracer is platform.tracer
    assert cluster.telemetry.metrics is platform.datacenter.metrics


def test_facade_owns_monitor_and_analyser():
    _platform, cluster = make()
    monitor = cluster.telemetry.monitor
    assert cluster.telemetry.monitor is monitor
    analyser = cluster.telemetry.analyser
    assert analyser.monitor is monitor


def test_empty_scope_raises_on_monitor_access():
    platform, _cluster = make()
    telemetry = Telemetry(platform.sim, platform.tracer)
    with pytest.raises(MonitorError):
        telemetry.monitor


def test_bottleneck_through_facade_matches_analyser():
    platform, cluster = make()
    telemetry = cluster.telemetry
    telemetry.monitor.sample_now(platform.sim.now)
    report = telemetry.bottleneck()
    assert report.busiest_resource
    shared = telemetry.shared_resources()
    names = {getattr(r, "name", None) for r in shared}
    assert "nfs.vnic" in names


def test_tuner_defaults_to_cluster_telemetry():
    platform, cluster = make()
    tuner = MapReduceTuner(cluster,
                           rules=[IncreaseSlotsWhenCpuIdleRule()])
    assert tuner.telemetry is cluster.telemetry
    assert tuner.analyser is cluster.telemetry.analyser
    for _ in range(3):
        cluster.telemetry.monitor.sample_now(platform.sim.now)
    recommendation = tuner.step()
    assert recommendation is not None and recommendation.kind == "reconfigure"


def test_tuner_still_requires_rules():
    _platform, cluster = make()
    with pytest.raises(TunerError):
        MapReduceTuner(cluster, rules=[])
