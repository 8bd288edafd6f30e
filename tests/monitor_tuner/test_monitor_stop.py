"""stop() semantics: a stopped monitor or observatory leaves nothing armed
in the sim."""

import pytest

from repro.config import PlatformConfig
from repro.errors import ConfigError
from repro.monitor import NmonMonitor
from repro.monitor.nmon import CPU, vm_buckets
from repro.observatory.detectors import Detector
from repro.platform import ClusterSpec, VHadoopPlatform
from repro.telemetry.timeseries import TimeSeriesStore


def make_cluster(seed=7):
    platform = VHadoopPlatform(PlatformConfig(n_hosts=2, seed=seed))
    cluster = platform.provision_cluster("stop", ClusterSpec.single_host(4))
    return platform, cluster


def samples(monitor):
    """Samples the monitor recorded so far, over all its VMs."""
    return sum(b.count for vm in monitor.vms
               for b in vm_buckets(monitor.store, vm.name, CPU))


def test_stopped_monitor_emits_no_further_samples():
    platform, cluster = make_cluster()
    monitor = cluster.telemetry.start_monitor(interval=2.0)
    platform.sim.run(until=5.0)
    cluster.telemetry.stop_monitor()
    count = samples(monitor)
    assert count == 3 * len(cluster.vms)  # t=0, 2, 4
    platform.sim.run(until=50.0)
    assert samples(monitor) == count


def test_stop_withdraws_pending_wakeup_from_the_queue():
    # Before the fix, the cancelled sampler's timeout stayed in the event
    # queue: a drain run() would advance the clock to the next interval
    # boundary even though nothing observable happened.
    platform, cluster = make_cluster()
    cluster.telemetry.start_monitor(interval=100.0)
    platform.sim.run(until=1.0)
    cluster.telemetry.stop_monitor()
    platform.sim.run()  # drain: must not jump to t=100
    assert platform.sim.now < 100.0


def test_stop_is_idempotent_and_restartable():
    platform, cluster = make_cluster()
    telemetry = cluster.telemetry
    monitor = telemetry.start_monitor(interval=1.0)
    platform.sim.run(until=2.5)
    telemetry.stop_monitor()
    telemetry.stop_monitor()  # no-op
    before = samples(monitor)
    telemetry.start_monitor()
    platform.sim.run(until=4.5)
    telemetry.stop_monitor()
    assert samples(monitor) > before


def test_samples_mirror_into_metrics_gauges():
    # The monitor writes straight into the scope's store; the registry
    # keeps no copy of the samples.
    platform, cluster = make_cluster()
    telemetry = cluster.telemetry
    monitor = telemetry.start_monitor(interval=1.0)
    platform.sim.run(until=3.0)
    telemetry.stop_monitor()
    assert monitor.store is telemetry.timeseries
    name = cluster.vms[0].name
    series = telemetry.timeseries.get("vm.cpu.utilization", {"vm": name})
    assert series is not None
    times = [b.last_at for b in series.tiers[0].buckets()]
    assert times == [0.0, 1.0, 2.0, 3.0]
    assert 0.0 <= series.latest()[0].last <= 1.0
    assert not [family for family in telemetry.metrics.families
                if family.startswith("vm.")]


def test_monitor_interval_and_store_step_are_one_value():
    platform, cluster = make_cluster()
    telemetry = cluster.telemetry
    store = telemetry.timeseries
    assert telemetry.start_monitor(interval=5.0).interval == 5.0
    platform.sim.run(until=1.0)
    assert len(store) > 0
    with pytest.raises(ConfigError, match="step"):
        telemetry.start_monitor(interval=2.0)
    with pytest.raises(ConfigError, match="step"):
        store.step = 2.0
    assert telemetry.monitor.interval == store.step == 5.0
    telemetry.stop_monitor()


# -- stopping a watcher from inside its own tick ------------------------------

def _self_stopping_monitor():
    platform, cluster = make_cluster()
    monitor = NmonMonitor(cluster.vms, TimeSeriesStore(cluster.sim))
    sample = monitor.sample_now

    def sample_then_stop(now):
        sample(now)
        if now >= 10.0:
            monitor.stop()
    monitor.sample_now = sample_then_stop
    return platform.sim, monitor, lambda: samples(monitor) // len(
        cluster.vms)


def _self_stopping_observatory():
    platform, cluster = make_cluster()

    class StopAtTen(Detector):
        def tick(self, now):
            if now >= 10.0:
                self.obs.stop()
    obs = cluster.observatory(interval=5.0, detectors=(StopAtTen,))
    return platform.sim, obs, lambda: obs.ticks


@pytest.mark.parametrize("build", [_self_stopping_monitor,
                                   _self_stopping_observatory])
def test_watcher_stopped_from_its_own_tick_leaves_no_timer(build):
    # Ticks at t=0, 5, 10; the third stops the watcher, so nothing may be
    # armed for t=15 and a drain run() ends where the stop happened.
    sim, watcher, ticks = build()
    watcher.start()
    sim.run()
    assert not watcher.running
    assert sim.now == 10.0
    assert ticks() == 3
