"""Unit tests for the network topology and transfer paths."""


import pytest

from repro import constants as C
from repro.errors import SimulationError
from repro.net import NetworkFabric
from repro.sim import FairShareSystem, Simulator, Tracer


@pytest.fixture()
def fabric():
    sim = Simulator()
    fss = FairShareSystem(sim)
    return sim, NetworkFabric(sim, fss, tracer=Tracer())


def build_two_hosts(fabric):
    h0 = fabric.add_host("h0")
    h1 = fabric.add_host("h1")
    a = fabric.attach("a", h0)
    b = fabric.attach("b", h0)
    c = fabric.attach("c", h1)
    return h0, h1, a, b, c


def test_duplicate_host_and_endpoint_rejected(fabric):
    sim, fab = fabric
    fab.add_host("h0")
    with pytest.raises(SimulationError):
        fab.add_host("h0")
    host = fab.hosts["h0"]
    fab.attach("x", host)
    with pytest.raises(SimulationError):
        fab.attach("x", host)


def test_loopback_path_is_free(fabric):
    sim, fab = fabric
    _h0, _h1, a, _b, _c = build_two_hosts(fab)
    path, latency = fab.path(a, a)
    assert len(path) == 0 and latency == 0.0


def test_same_host_path_uses_bridge(fabric):
    sim, fab = fabric
    h0, _h1, a, b, _c = build_two_hosts(fab)
    path, latency = fab.path(a, b)
    assert h0.bridge in path
    assert h0.nic not in path
    assert h0.netback not in path
    assert latency == C.BRIDGE_LATENCY_S


def test_cross_host_path_pays_netback_and_nics(fabric):
    sim, fab = fabric
    h0, h1, a, _b, c = build_two_hosts(fab)
    path, latency = fab.path(a, c)
    assert h0.nic in path and h1.nic in path
    assert h0.netback in path and h1.netback in path
    assert latency == C.LAN_LATENCY_S
    assert fab.crosses_physical_nic(a, c)
    assert not fab.crosses_physical_nic(a, a)


def test_privileged_endpoints_skip_netback(fabric):
    sim, fab = fabric
    h0, h1, a, _b, _c = build_two_hosts(fab)
    dom0 = fab.attach("h1.dom0", h1, privileged=True)
    path, _lat = fab.path(dom0, a)
    assert h1.netback not in path  # source is privileged
    assert h0.netback in path      # guest destination still pays


def test_transfer_time_matches_bottleneck(fabric):
    sim, fab = fabric
    _h0, _h1, a, _b, c = build_two_hosts(fab)
    done = fab.transfer(a, c, C.XEN_NETBACK_BPS)  # 1 s at the netback
    sim.run()
    assert done.value == pytest.approx(1.0 + C.LAN_LATENCY_S, rel=1e-3)
    assert a.tx_bytes == C.XEN_NETBACK_BPS
    assert c.rx_bytes == C.XEN_NETBACK_BPS


def test_bridge_transfer_faster_than_cross_host(fabric):
    sim, fab = fabric
    _h0, _h1, a, b, c = build_two_hosts(fab)
    nbytes = 100 * C.MB
    local = fab.transfer(a, b, nbytes)
    sim.run()
    remote = fab.transfer(a, c, nbytes)
    sim.run()
    assert remote.value > 5 * local.value


def test_negative_transfer_rejected(fabric):
    sim, fab = fabric
    _h0, _h1, a, _b, c = build_two_hosts(fab)
    with pytest.raises(SimulationError):
        fab.transfer(a, c, -1)


def test_zero_byte_transfer_costs_latency_only(fabric):
    sim, fab = fabric
    _h0, _h1, a, _b, c = build_two_hosts(fab)
    done = fab.transfer(a, c, 0)
    sim.run()
    assert done.value == pytest.approx(C.LAN_LATENCY_S)


def test_move_rehomes_endpoint(fabric):
    sim, fab = fabric
    h0, h1, a, _b, c = build_two_hosts(fab)
    before, _lat = fab.path(a, c)  # prime the route cache
    assert h0.nic in before
    fab.move(a, h1)
    path, _lat = fab.path(a, c)
    assert h1.bridge in path  # now co-located with c: cache was dropped


def test_transfers_emit_trace(fabric):
    sim, fab = fabric
    _h0, _h1, a, _b, c = build_two_hosts(fab)
    fab.transfer(a, c, 1000, name="probe")
    sim.run()
    start = next(fab.tracer.select("net.transfer.start"))
    assert start["cross_domain"] is True
    end = list(fab.tracer.select("net.transfer.end"))[-1]
    assert end["bytes"] == 1000
