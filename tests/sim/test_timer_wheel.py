"""Kernel flattening: the wake slab."""

import pytest

from repro.sim import Simulator


@pytest.fixture()
def sim():
    return Simulator()


def test_wake_events_recycled_through_slab(sim):
    def noop(sim_):
        yield sim_.timeout(1.0)

    def spawner(sim_):
        for _ in range(20):
            sim_.process(noop(sim_))
            yield sim_.timeout(1.0)

    sim.process(spawner(sim))
    sim.run()
    # Bootstraps after the first recycle their wake events off the slab.
    assert sim.wake_events_reused > 0
    assert len(sim._wake_pool) <= sim._WAKE_POOL_MAX
