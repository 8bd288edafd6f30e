"""Detector unit tests driven by synthetic trace events.

The chaos matrix experiment exercises the link/disk/liveness detectors
end to end; these tests pin the event-driven detectors (straggler, skew,
node liveness) whose signals are easy to fabricate precisely."""

import pytest

from repro.config import PlatformConfig
from repro.observatory.detectors import (DiskHealthDetector,
                                         NodeLivenessDetector, SkewDetector,
                                         StragglerDetector)
from repro.platform import ClusterSpec, VHadoopPlatform
from repro.sim.trace import TraceEvent
from repro.telemetry import events as EV


@pytest.fixture()
def obs():
    platform = VHadoopPlatform(PlatformConfig(n_hosts=2, seed=3))
    cluster = platform.provision_cluster("det", ClusterSpec.single_host(4))
    # Built but never started: tests drive on_event/tick by hand.
    return cluster.observatory(interval=1.0)


def detector(obs, cls):
    return next(d for d in obs.detectors if isinstance(d, cls))


def attempt_events(span_id, name, start, end, failed=False):
    kind = EV.TASK_MAP
    yield TraceEvent(start, f"{kind}.start", name, {"span": span_id})
    if end is not None:
        yield TraceEvent(end, f"{kind}.end", name,
                         {"span": span_id, "failed": failed})


class TestStraggler:
    def feed(self, det, n_finished, runtime=10.0):
        for i in range(n_finished):
            for ev in attempt_events(i, f"m-{i:05d}", 0.0, runtime):
                det.on_event(ev)

    def test_fires_on_robust_outlier_and_resolves_on_finish(self, obs):
        det = detector(obs, StragglerDetector)
        self.feed(det, 6)
        slow = TraceEvent(0.0, f"{EV.TASK_MAP}.start", "m-00099",
                          {"span": 99})
        det.on_event(slow)
        det.tick(60.0)
        active = obs.book.active("straggler-task")
        assert [a.target for a in active] == ["m-00099"]
        assert active[0].attribution == "node"
        done = TraceEvent(61.0, f"{EV.TASK_MAP}.end", "m-00099",
                          {"span": 99})
        det.on_event(done)
        assert obs.book.active("straggler-task") == []

    def test_needs_min_samples(self, obs):
        det = detector(obs, StragglerDetector)
        self.feed(det, det.MIN_SAMPLES - 1)
        det.on_event(TraceEvent(0.0, f"{EV.TASK_MAP}.start", "m-00099",
                                {"span": 99}))
        det.tick(1000.0)
        assert obs.alerts("straggler-task") == []

    def test_absolute_guard_blocks_tight_distributions(self, obs):
        det = detector(obs, StragglerDetector)
        self.feed(det, 8, runtime=10.0)
        det.on_event(TraceEvent(0.0, f"{EV.TASK_MAP}.start", "m-00099",
                                {"span": 99}))
        # MAD is 0, so the score is huge — but 12s < 1.5 x 10s median.
        det.tick(12.0)
        assert obs.alerts("straggler-task") == []

    def test_failed_attempts_do_not_pollute_the_baseline(self, obs):
        det = detector(obs, StragglerDetector)
        for ev in attempt_events(1, "m-00001", 0.0, 500.0, failed=True):
            det.on_event(ev)
        assert det._finished == {}


class TestSkew:
    def fetch(self, det, partition, nbytes, t=1.0, job="job1"):
        det.on_event(TraceEvent(
            t, "shuffle.fetch.start", f"m-00000:{partition}",
            {"nbytes": nbytes, "job": job}))

    def test_fires_on_hot_partition(self, obs):
        det = detector(obs, SkewDetector)
        for i in range(4):
            self.fetch(det, f"r{i}", 4 << 20)
        self.fetch(det, "r0", 16 << 20)
        det.tick(2.0)
        (alert,) = obs.book.active("reducer-skew")
        assert alert.target == "job1:r0" and alert.attribution == "data"
        assert alert.value == pytest.approx(5.0)

    def test_quiet_below_min_partitions_or_bytes(self, obs):
        det = detector(obs, SkewDetector)
        self.fetch(det, "r0", 64 << 20)
        self.fetch(det, "r1", 1 << 20)
        det.tick(2.0)                       # only 2 partitions
        assert obs.alerts("reducer-skew") == []
        det2 = detector(obs, SkewDetector)
        for i in range(6):
            self.fetch(det2, f"r{i}", 1000)  # tiny: under MIN_BYTES
        self.fetch(det2, "r0", 100_000)
        det2.tick(3.0)
        assert obs.alerts("reducer-skew") == []

    def test_job_submit_resets_partition_accounting(self, obs):
        det = detector(obs, SkewDetector)
        for i in range(4):
            self.fetch(det, f"r{i}", 4 << 20)
        self.fetch(det, "r0", 64 << 20)
        det.on_event(TraceEvent(5.0, EV.JOB_SUBMIT, "job1"))
        det.tick(6.0)
        assert det._bytes == {}
        assert obs.alerts("reducer-skew") == []

    def test_concurrent_jobs_do_not_pool_partitions(self, obs):
        # Fuzzer regression: balanced shuffles from jobs with different
        # reduce counts must not be judged against each other's median.
        det = detector(obs, SkewDetector)
        for i in range(4):
            self.fetch(det, f"r{i}", 8 << 20, job="tera")
        for i in range(4):
            self.fetch(det, f"r{i}", 2 << 20, job="wc")
        det.tick(2.0)
        assert obs.alerts("reducer-skew") == []

    def test_job_submit_keeps_other_jobs_buckets(self, obs):
        det = detector(obs, SkewDetector)
        for i in range(4):
            self.fetch(det, f"r{i}", 4 << 20, job="keep")
        self.fetch(det, "r0", 16 << 20, job="keep")
        det.on_event(TraceEvent(5.0, EV.JOB_SUBMIT, "other"))
        det.tick(6.0)
        (alert,) = obs.book.active("reducer-skew")
        assert alert.target == "keep:r0"


class TestNodeLiveness:
    def test_vm_failure_fires_and_recovery_resolves(self, obs):
        det = detector(obs, NodeLivenessDetector)
        vm = obs.telemetry.vms[0].name
        det.on_event(TraceEvent(10.0, EV.VM_FAILED, vm))
        (alert,) = obs.book.active("node-down")
        assert alert.target == vm and alert.attribution == "node"
        det.on_event(TraceEvent(20.0, EV.VM_RECOVERED, vm))
        assert obs.book.active("node-down") == []
        assert obs.alerts("host-down") == []

    def test_correlated_wipeout_upgrades_to_host_down(self, obs):
        det = detector(obs, NodeLivenessDetector)
        machine = obs.telemetry.datacenter.machines[0]
        residents = sorted(machine.vms)
        assert len(residents) >= 2
        for i, vm in enumerate(residents):
            det.on_event(TraceEvent(10.0 + i, EV.VM_FAILED, vm))
        (alert,) = obs.book.active("host-down")
        assert alert.target == machine.name

    def test_slow_uncorrelated_failures_stay_node_level(self, obs):
        det = detector(obs, NodeLivenessDetector)
        machine = obs.telemetry.datacenter.machines[0]
        residents = sorted(machine.vms)
        gap = NodeLivenessDetector.CORRELATION_S + 5.0
        for i, vm in enumerate(residents):
            det.on_event(TraceEvent(10.0 + i * gap, EV.VM_FAILED, vm))
        assert obs.alerts("host-down") == []
        assert len(obs.book.active("node-down")) == len(residents)


def test_readers_see_settled_rates_from_inside_a_burst(obs):
    """The engine recomputes rates once per instant, so a reader that runs
    *between* two same-instant opens must settle first: the nmon sampler
    and the disk-health detector report the fill over the flows opened so
    far (what an eager engine showed them), never pre-flush leftovers."""
    telemetry = obs.telemetry
    dc = telemetry.datacenter
    sim, fss = dc.sim, dc.fss
    vm = telemetry.vms[0]
    disk_path = (vm.host.net.nic, vm.nfs_backend)
    bottleneck = min(r.capacity for r in disk_path)
    old = fss.open(disk_path, size=float("inf"), name=f"{vm.name}:io")
    sim.run(until=2.0)  # older than DiskHealthDetector.MIN_LIVE_S
    assert old.rate == bottleneck
    seen = {}

    def opener(tag):
        fss.open(disk_path, size=float("inf"), name=f"{vm.name}:{tag}")
        fss.open((vm.vcpu, vm.host.cpu), size=float("inf"), cap=1.0,
                 name=f"{vm.name}:{tag}-cpu")
        yield sim.timeout(0.0)

    def reader():
        telemetry.monitor.sample_now(sim.now)
        seen["cpu"] = telemetry.timeseries.get(
            "vm.cpu.utilization", {"vm": vm.name}).latest()[0].last
        seen["ratio"] = detector(obs, DiskHealthDetector)._shortfalls(sim.now)
        seen["rate"] = old.rate
        yield sim.timeout(0.0)

    sim.process(opener("first"))
    sim.process(reader())
    sim.process(opener("second"))
    sim.run(until=2.0)
    # Mid-burst: two disk flows share the bottleneck, one task on the VCPUs.
    assert seen["rate"] == bottleneck / 2
    assert seen["ratio"] == {vm.name: 1.0}
    assert seen["cpu"] == 1.0 / vm.vcpu.capacity
    # End of instant: the second opener's flows are in as well.
    assert old.rate == bottleneck / 3
    assert vm.vcpu.utilization == min(1.0, 2.0 / vm.vcpu.capacity)
