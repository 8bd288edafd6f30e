"""Unit tests for the MapReduce Tuner and its rules."""

import pytest

from repro.config import PlatformConfig
from repro.errors import TunerError
from repro.platform import ClusterSpec, VHadoopPlatform
from repro.tuner import (ConsolidateCrossDomainRule, MapReduceTuner,
                         Recommendation, IncreaseSlotsWhenCpuIdleRule,
                         ReduceSlotsWhenSaturatedRule)
from repro.workloads.wordcount import lines_as_records, wordcount_job


def make(layout="normal", n=6, seed=2):
    platform = VHadoopPlatform(PlatformConfig(n_hosts=2, seed=seed))
    placement = (ClusterSpec.single_host(n) if layout == "normal"
                 else ClusterSpec.packed(n, hosts=2))
    cluster = platform.provision_cluster("tn", placement)
    telemetry = cluster.telemetry
    telemetry.timeseries.step = 1.0
    return platform, cluster, telemetry.monitor, telemetry.analyser


def test_tuner_requires_rules():
    platform, cluster, _monitor, analyser = make()
    with pytest.raises(TunerError):
        MapReduceTuner(cluster, rules=[])


def test_increase_slots_when_idle():
    platform, cluster, monitor, analyser = make()
    for _ in range(3):
        monitor.sample_now(platform.sim.now)  # all-idle samples
    tuner = MapReduceTuner(cluster,
                           rules=[IncreaseSlotsWhenCpuIdleRule()])
    before = cluster.config.map_tasks_maximum
    recommendation = tuner.step()
    assert recommendation is not None
    assert recommendation.kind == "reconfigure"
    assert cluster.config.map_tasks_maximum == before + 1
    assert tuner.log and tuner.log[-1].applied


def test_reduce_slots_when_saturated():
    platform, cluster, monitor, analyser = make()
    # Saturate every worker VCPU with long tasks, then sample.
    for vm in cluster.vms:
        vm.compute(500.0)
        vm.compute(500.0)
    platform.sim.run(until=5.0)
    for _ in range(3):
        monitor.sample_now(platform.sim.now)
    tuner = MapReduceTuner(cluster,
                           rules=[ReduceSlotsWhenSaturatedRule()])
    before = cluster.config.map_tasks_maximum
    recommendation = tuner.step()
    assert recommendation is not None
    assert cluster.config.map_tasks_maximum == before - 1


def test_consolidation_migrates_cross_domain_cluster():
    platform, cluster, monitor, analyser = make(layout="cross-domain", n=6)
    assert cluster.cross_domain
    # Generate sustained cross-host traffic so the NIC/netback shows busy.
    dc = platform.datacenter
    a = cluster.workers[0]
    b = next(vm for vm in cluster.workers if vm.host is not a.host)
    dc.fabric.transfer(a.node, b.node, 2e9)
    platform.sim.run(until=20.0)
    monitor.sample_now(platform.sim.now)
    tuner = MapReduceTuner(cluster,
                           rules=[ConsolidateCrossDomainRule(
                               net_busy_threshold=0.3)])
    recommendation = tuner.recommend()
    assert recommendation is not None
    assert recommendation.kind == "migrate"
    tuner.apply(recommendation)
    assert not cluster.cross_domain


def test_consolidation_noop_on_normal_cluster():
    platform, cluster, monitor, analyser = make(layout="normal")
    monitor.sample_now(platform.sim.now)
    rule = ConsolidateCrossDomainRule()
    report = analyser.bottleneck(cluster.telemetry.shared_resources(),
                                 now=1.0)
    assert rule.evaluate(cluster, analyser, report) is None


def test_apply_unknown_kind_raises():
    platform, cluster, monitor, analyser = make()
    monitor.sample_now(platform.sim.now)
    tuner = MapReduceTuner(cluster)
    with pytest.raises(TunerError):
        tuner.apply(Recommendation(rule="x", kind="teleport", reason="?"))


def test_tuner_closed_loop_improves_underprovisioned_cluster():
    """End-to-end Fig. 1 loop: monitor -> tune (more slots) -> faster job."""
    from repro.config import HadoopConfig

    def run_once(tune: bool) -> float:
        platform = VHadoopPlatform(PlatformConfig(n_hosts=2, seed=21))
        cluster = platform.provision_cluster(
            "loop", ClusterSpec.single_host(4),
            hadoop_config=HadoopConfig(map_tasks_maximum=1))
        lines = ["omega psi chi " * 30] * 1500
        platform.upload(cluster, "/in", lines_as_records(lines),
                        sizeof=lambda r: (len(r[1]) + 1) * 60, timed=False)
        job = wordcount_job("/in", "/warm", n_reduces=2, volume_scale=60)
        cluster.telemetry.start_monitor(interval=1.0)
        platform.run_job(cluster, job)
        cluster.telemetry.stop_monitor()
        if tune:
            tuner = MapReduceTuner(
                cluster,
                rules=[IncreaseSlotsWhenCpuIdleRule(max_slots=4)])
            tuner.step()
        job2 = wordcount_job("/in", "/cold", n_reduces=2, volume_scale=60)
        return platform.run_job(cluster, job2).elapsed

    assert run_once(tune=True) < run_once(tune=False)
