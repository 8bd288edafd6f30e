"""Unit tests for max-min fair fluid-flow sharing."""

import math

import pytest

from repro.errors import ResourceError
from repro.sim import FairShareSystem, SharedResource, Simulator


@pytest.fixture()
def sim():
    return Simulator()


@pytest.fixture()
def fss(sim):
    return FairShareSystem(sim)


def test_single_flow_full_capacity(sim, fss):
    link = SharedResource("link", 100.0)
    flow = fss.open([link], size=1000.0)
    sim.run()
    assert flow.end_time == pytest.approx(10.0)
    assert flow.done.value is flow


def test_resource_requires_positive_capacity():
    with pytest.raises(ResourceError):
        SharedResource("bad", 0.0)


def test_two_flows_share_equally(sim, fss):
    link = SharedResource("link", 100.0)
    f1 = fss.open([link], size=1000.0)
    f2 = fss.open([link], size=1000.0)
    sim.run()
    # Both get 50 u/s for the whole transfer.
    assert f1.end_time == pytest.approx(20.0)
    assert f2.end_time == pytest.approx(20.0)


def test_short_flow_releases_bandwidth(sim, fss):
    link = SharedResource("link", 100.0)
    long = fss.open([link], size=1500.0)
    short = fss.open([link], size=500.0)
    sim.run()
    # Shared at 50 each until short finishes at t=10 (500/50); long then has
    # 1000 left at 100 u/s -> finishes at t=20.
    assert short.end_time == pytest.approx(10.0)
    assert long.end_time == pytest.approx(20.0)


def test_late_arrival_slows_existing_flow(sim, fss):
    link = SharedResource("link", 100.0)
    first = fss.open([link], size=1000.0)

    def late(sim):
        yield sim.timeout(5.0)
        second = fss.open([link], size=250.0)
        yield second.done

    sim.process(late(sim))
    sim.run()
    # First alone for 5 s (500 done), then 50/50 for 5 s (second's 250 done
    # at t=10), then first alone: 250 left at 100 -> t=12.5.
    assert first.end_time == pytest.approx(12.5)


def test_per_flow_cap_respected(sim, fss):
    link = SharedResource("link", 100.0)
    capped = fss.open([link], size=100.0, cap=10.0)
    sim.run()
    assert capped.end_time == pytest.approx(10.0)


def test_cap_leftover_goes_to_other_flows(sim, fss):
    link = SharedResource("link", 100.0)
    capped = fss.open([link], size=100.0, cap=10.0)
    greedy = fss.open([link], size=450.0)
    sim.run()
    # capped: 10 u/s; greedy: 90 u/s -> greedy done at 5 s, capped at 10 s.
    assert greedy.end_time == pytest.approx(5.0)
    assert capped.end_time == pytest.approx(10.0)


def test_multi_resource_path_bottleneck(sim, fss):
    fast = SharedResource("fast", 1000.0)
    slow = SharedResource("slow", 10.0)
    flow = fss.open([fast, slow], size=100.0)
    sim.run()
    assert flow.end_time == pytest.approx(10.0)


def test_cross_traffic_on_shared_middle_link(sim, fss):
    # Two flows share only the middle link; each also crosses a private edge.
    a_edge = SharedResource("a", 1000.0)
    b_edge = SharedResource("b", 1000.0)
    middle = SharedResource("middle", 100.0)
    fa = fss.open([a_edge, middle], size=500.0)
    fb = fss.open([b_edge, middle], size=500.0)
    sim.run()
    assert fa.end_time == pytest.approx(10.0)
    assert fb.end_time == pytest.approx(10.0)


def test_maxmin_unequal_bottlenecks(sim, fss):
    # Classic max-min: flow1 crosses r1 only; flow2 crosses r1 and r2 where
    # r2 is tighter.  flow2 pinned at 10 by r2; flow1 takes the rest of r1.
    r1 = SharedResource("r1", 100.0)
    r2 = SharedResource("r2", 10.0)
    f2 = fss.open([r1, r2], size=100.0)
    f1 = fss.open([r1], size=900.0)
    sim.run()
    assert f2.end_time == pytest.approx(10.0)
    assert f1.end_time == pytest.approx(10.0)


def test_zero_size_flow_completes_immediately(sim, fss):
    link = SharedResource("link", 100.0)
    flow = fss.open([link], size=0.0)
    assert flow.done.triggered
    sim.run()
    assert flow.end_time == 0.0


def test_negative_size_rejected(sim, fss):
    link = SharedResource("link", 100.0)
    with pytest.raises(ResourceError):
        fss.open([link], size=-1.0)


def test_empty_path_rejected(sim, fss):
    with pytest.raises(ResourceError):
        fss.open([], size=10.0)


def test_infinite_flow_closed_explicitly(sim, fss):
    link = SharedResource("link", 100.0)
    bg = fss.open([link], size=math.inf)

    def closer(sim):
        yield sim.timeout(3.0)
        moved = fss.close(bg)
        return moved

    p = sim.process(closer(sim))
    sim.run()
    assert p.value == pytest.approx(300.0)
    assert bg.end_time == pytest.approx(3.0)


def test_infinite_flow_contends_with_finite(sim, fss):
    link = SharedResource("link", 100.0)
    bg = fss.open([link], size=math.inf)
    finite = fss.open([link], size=500.0)

    def closer(sim):
        yield finite.done
        fss.close(bg)

    sim.process(closer(sim))
    sim.run()
    # finite runs at 50 u/s -> 10 s.
    assert finite.end_time == pytest.approx(10.0)


def test_close_inactive_flow_rejected(sim, fss):
    link = SharedResource("link", 100.0)
    flow = fss.open([link], size=10.0)
    sim.run()
    with pytest.raises(ResourceError):
        fss.close(flow)


def test_close_at_the_completion_instant_returns_the_full_size(sim, fss):
    """A close that runs at the flow's completion instant, before the
    completion timer (an interrupt handler, say), finds the flow done:
    it returns the full size and ``done`` triggers exactly once."""
    link = SharedResource("link", 100.0)
    closed = []
    sim.call_in(10.0, lambda: closed.append(fss.close(flow)))
    flow = fss.open([link], size=1000.0)
    sim.run()
    assert closed == [1000.0]
    assert flow.end_time == 10.0 and flow.done.value is flow
    assert fss.completed_count == 1


def test_utilization_and_busy_time(sim, fss):
    link = SharedResource("link", 100.0)
    fss.open([link], size=500.0, cap=50.0)
    sim.run(until=5.0)
    assert link.utilization == pytest.approx(0.5)
    sim.run()
    # 50 u/s for 10 s over capacity 100 -> 5 resource-seconds of busy time.
    assert link.busy_time(sim.now) == pytest.approx(5.0)
    assert link.current_load == 0.0


def test_vcpu_cap_stacking_models_cpu():
    # Two "tasks" on one 1-VCPU VM must share a single core even on an
    # 8-core host: the VM's vcpu resource is the bottleneck.
    sim = Simulator()
    fss = FairShareSystem(sim)
    host_cpu = SharedResource("host.cpu", 8.0)
    vcpu = SharedResource("vm.vcpu", 1.0)
    t1 = fss.open([vcpu, host_cpu], size=10.0, cap=1.0)
    t2 = fss.open([vcpu, host_cpu], size=10.0, cap=1.0)
    sim.run()
    assert t1.end_time == pytest.approx(20.0)
    assert t2.end_time == pytest.approx(20.0)


def test_host_oversubscription_models_contention():
    # 4 VMs (1 VCPU each) on a 2-core host each run one task: each VCPU gets
    # half a core.
    sim = Simulator()
    fss = FairShareSystem(sim)
    host_cpu = SharedResource("host.cpu", 2.0)
    flows = []
    for i in range(4):
        vcpu = SharedResource(f"vm{i}.vcpu", 1.0)
        flows.append(fss.open([vcpu, host_cpu], size=10.0, cap=1.0))
    sim.run()
    for flow in flows:
        assert flow.end_time == pytest.approx(20.0)


def test_many_flows_complete_and_conserve_work(sim, fss):
    link = SharedResource("link", 100.0)
    sizes = [100.0 * (i % 7 + 1) for i in range(40)]
    flows = [fss.open([link], size=s) for s in sizes]
    sim.run()
    assert all(f.end_time is not None for f in flows)
    assert fss.completed_count == len(flows)
    # Work conservation: the link ran at full capacity until the last flow
    # finished (all flows start at t=0 and the link is always saturated).
    total = sum(sizes)
    last = max(f.end_time for f in flows)
    assert last == pytest.approx(total / 100.0)
