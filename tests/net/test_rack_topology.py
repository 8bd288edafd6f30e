"""Rack tier: ToR/aggregation paths and the bounded LRU route cache."""

import pytest

from repro import constants as C
from repro.net import NetworkFabric
from repro.sim import FairShareSystem, Simulator, Tracer


@pytest.fixture()
def fabric():
    sim = Simulator()
    fss = FairShareSystem(sim)
    return sim, NetworkFabric(sim, fss, tracer=Tracer())


def build_racked(fab, racks=2, hosts_per_rack=2, tor_bandwidth=C.TOR_SWITCH_BPS):
    fab.set_aggregation(C.AGG_UPLINK_BPS)
    endpoints = []
    for r in range(racks):
        rack = fab.add_rack(f"rack{r}", tor_bandwidth=tor_bandwidth)
        for h in range(hosts_per_rack):
            host = fab.add_host(f"r{r}h{h}", rack=rack)
            endpoints.append(fab.attach(f"vm-r{r}h{h}", host))
    return endpoints


def test_same_rack_path_crosses_tor_not_agg(fabric):
    _sim, fab = fabric
    a, b, _c, _d = build_racked(fab)
    path, latency = fab.path(a, b)
    tor = fab.racks["rack0"].tor
    assert tor in path
    assert fab.agg not in path
    assert latency == C.LAN_LATENCY_S


def test_inter_rack_path_crosses_both_tors_and_agg(fabric):
    _sim, fab = fabric
    a, _b, c, _d = build_racked(fab)
    path, latency = fab.path(a, c)
    assert fab.racks["rack0"].tor in path
    assert fab.racks["rack1"].tor in path
    assert fab.agg in path
    # ToRs sit between the NICs, source side before destination side.
    assert (path.index(fab.racks["rack0"].tor)
            < path.index(fab.agg)
            < path.index(fab.racks["rack1"].tor))
    assert latency == C.LAN_LATENCY_S + C.AGG_LATENCY_S


def test_one_rack_degenerate_matches_flat_paths(fabric):
    """tor=None racks add no resources: the flat path shape is preserved."""
    _sim, fab = fabric
    rack = fab.add_rack("rack0", tor_bandwidth=None)
    h0 = fab.add_host("h0", rack=rack)
    h1 = fab.add_host("h1", rack=rack)
    a = fab.attach("a", h0)
    c = fab.attach("c", h1)
    path, latency = fab.path(a, c)
    assert path == (a.vnic, h0.netback, h0.nic, h1.nic, h1.netback, c.vnic)
    assert latency == C.LAN_LATENCY_S
    assert fab.agg is None


def test_inter_rack_transfer_bottlenecked_by_agg(fabric):
    sim, fab = fabric
    a, b, c, _d = build_racked(fab)
    intra = fab.transfer(a, b, 100 * C.MB)
    sim.run()
    inter = fab.transfer(a, c, 100 * C.MB)
    sim.run()
    # The aggregation uplink is the slowest tier, so crossing racks is
    # strictly slower than staying behind one ToR.
    assert inter.value > intra.value


# --- LRU route cache --------------------------------------------------------

def test_path_cache_hit_miss_counters(fabric):
    _sim, fab = fabric
    a, b, c, _d = build_racked(fab)
    assert fab.path_cache_stats()["misses"] == 0
    fab.path(a, b)
    fab.path(a, b)
    fab.path(a, c)
    stats = fab.path_cache_stats()
    assert stats["misses"] == 2
    assert stats["hits"] == 1
    assert stats["size"] == 2


def test_path_cache_evicts_lru_at_capacity(fabric):
    _sim, fab = fabric
    a, b, c, d = build_racked(fab)
    fab.path_cache_capacity = 2
    fab.path(a, b)          # cache: ab
    fab.path(a, c)          # cache: ab, ac
    fab.path(a, b)          # touch ab -> ac is now LRU
    fab.path(a, d)          # evicts ac
    assert fab.path_cache_evictions == 1
    assert (a, c) not in fab._path_cache
    assert (a, b) in fab._path_cache
    # Evicted routes recompute correctly.
    path, _lat = fab.path(a, c)
    assert fab.agg in path


def test_path_cache_bounded_under_many_pairs(fabric):
    _sim, fab = fabric
    fab.path_cache_capacity = 8
    endpoints = build_racked(fab, racks=2, hosts_per_rack=3)
    for src in endpoints:
        for dst in endpoints:
            if src is not dst:
                fab.path(src, dst)
    assert len(fab._path_cache) <= 8


def test_move_invalidates_cached_routes(fabric):
    """Regression: VM migration must drop stale cached paths."""
    _sim, fab = fabric
    a, _b, c, _d = build_racked(fab)
    before, _lat = fab.path(a, c)
    assert fab.agg in before            # racks differ: via aggregation
    fab.move(a, c.host)
    after, latency = fab.path(a, c)
    assert fab.agg not in after          # co-located: bridge only
    assert c.host.bridge in after
    assert latency == C.BRIDGE_LATENCY_S
