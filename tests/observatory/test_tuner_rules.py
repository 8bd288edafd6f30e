"""Alert-driven tuner rules: observatory alerts become applied knobs."""

from repro.config import PlatformConfig
from repro.platform import ClusterSpec, VHadoopPlatform
from repro.tuner.rules import SLOWDOWN_FLOOR, SLOWDOWN_RATCHET
from repro.tuner import (MapReduceTuner, MigrateOffHotHostRule,
                         SpeculateOnStragglersRule)


def make(n=6, seed=2):
    platform = VHadoopPlatform(PlatformConfig(n_hosts=2, seed=seed))
    cluster = platform.provision_cluster("alert-tn", ClusterSpec.single_host(n))
    obs = cluster.observatory(interval=1.0)   # built, never started
    cluster.telemetry.monitor.sample_now(platform.sim.now)
    return platform, cluster, obs


def test_straggler_alerts_enable_speculation():
    _platform, cluster, obs = make()
    assert not cluster.config.speculative_execution
    obs.book.fire("straggler-task", "m-00003", 6.1, "node")
    tuner = MapReduceTuner(cluster,
                           rules=[SpeculateOnStragglersRule(obs)])
    recommendation = tuner.step()
    assert recommendation is not None and recommendation.kind == "reconfigure"
    assert "m-00003" in recommendation.reason
    assert cluster.config.speculative_execution
    assert tuner.log[-1].applied


def test_straggler_rule_ratchets_then_floors():
    _platform, cluster, obs = make()
    rule = SpeculateOnStragglersRule(obs)
    tuner = MapReduceTuner(cluster, rules=[rule])
    obs.book.fire("straggler-task", "m-00001", 5.0, "node")
    tuner.step()                                   # speculation on
    slowdown = cluster.config.speculative_slowdown
    obs.book.fire("straggler-task", "m-00002", 5.0, "node")
    second = tuner.step()
    assert second.config_changes == {
        "speculative_slowdown": max(SLOWDOWN_FLOOR,
                                    slowdown * SLOWDOWN_RATCHET)}
    # Drive the ratchet to its floor; once there the rule abstains.
    for i in range(10):
        obs.book.fire("straggler-task", f"m-1{i:04d}", 5.0, "node")
        if tuner.recommend() is None:
            break
        tuner.step()
    assert cluster.config.speculative_slowdown == SLOWDOWN_FLOOR
    obs.book.fire("straggler-task", "m-99999", 5.0, "node")
    assert tuner.recommend() is None


def test_straggler_rule_cursor_consumes_alerts_once():
    _platform, cluster, obs = make()
    rule = SpeculateOnStragglersRule(obs)
    tuner = MapReduceTuner(cluster, rules=[rule])
    assert tuner.recommend() is None               # no alerts yet
    obs.book.fire("straggler-task", "m-00001", 5.0, "node")
    assert tuner.step() is not None
    # The same alert is not consumed twice.
    assert tuner.recommend() is None


def test_hot_host_alert_migrates_busiest_resident():
    _platform, cluster, obs = make()
    hot = cluster.workers[0].host
    residents_before = {vm.name for vm in cluster.vms
                        if vm.host is not None and vm.host.name == hot.name}
    obs.book.fire("hot-host", hot.name, 0.97, "cpu")
    tuner = MapReduceTuner(cluster, rules=[MigrateOffHotHostRule(obs)])
    recommendation = tuner.step()
    assert recommendation is not None and recommendation.kind == "migrate"
    ((moved, _target_index),) = recommendation.migrations
    assert moved in residents_before
    dc = cluster.datacenter
    assert dc.vms[moved].host.name != hot.name     # migration ran
    # Cursor: the consumed alert does not retrigger.
    assert tuner.recommend() is None


def test_hot_host_rule_abstains_without_alerts_or_residents():
    _platform, cluster, obs = make()
    tuner = MapReduceTuner(cluster, rules=[MigrateOffHotHostRule(obs)])
    assert tuner.recommend() is None
    obs.book.fire("hot-host", "no-such-host", 0.99, "cpu")
    assert tuner.recommend() is None
