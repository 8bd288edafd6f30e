"""Kernel flattening: TimerWheel coalescing, wake slab."""

import pytest

from repro.sim import Simulator


@pytest.fixture()
def sim():
    return Simulator()


# -- TimerWheel --------------------------------------------------------------

def test_same_instant_same_deadline_sleeps_share_one_timeout(sim):
    wheel = sim.timer_wheel()
    timers = [wheel.sleep(5.0) for _ in range(10)]
    assert all(t is timers[0] for t in timers)
    assert wheel.armed == 1
    assert wheel.coalesced == 9


def test_distinct_deadlines_are_not_coalesced(sim):
    wheel = sim.timer_wheel()
    a = wheel.sleep(5.0)
    b = wheel.sleep(6.0)
    assert a is not b
    assert wheel.armed == 2
    assert wheel.coalesced == 0


def test_distinct_instants_are_not_coalesced(sim):
    wheel = sim.timer_wheel()
    seen = []

    def sleeper(delay):
        seen.append(wheel.sleep(delay))
        yield seen[-1]

    sim.process(sleeper(5.0))

    def later(sim_):
        yield sim_.timeout(1.0)
        sim_.process(sleeper(4.0))  # same *deadline* (t=5), later instant

    sim.process(later(sim))
    sim.run()
    assert seen[0] is not seen[1]
    assert wheel.armed == 2


def test_wheel_wakes_waiters_in_arming_order(sim):
    wheel = sim.timer_wheel()
    order = []

    def sleeper(tag):
        yield wheel.sleep(3.0)
        order.append(tag)

    for tag in ("a", "b", "c"):
        sim.process(sleeper(tag))
    sim.run()
    assert order == ["a", "b", "c"]
    assert sim.now == 3.0


def test_fired_slot_rearms_a_fresh_timeout(sim):
    """After the shared timer fires its slot is retired; a later sleep at
    the same (instant, deadline) key gets a brand-new Timeout."""
    wheel = sim.timer_wheel()
    first = wheel.sleep(2.0)
    sim.run()
    assert sim.now == 2.0

    def resleep(sim_):
        yield sim_.timeout(0.0)

    sim.process(resleep(sim))
    sim.run()
    again = wheel.sleep(2.0)  # armed at t=2 for t=4
    assert again is not first
    assert wheel.armed == 2


def test_per_subsystem_wheels_never_share_slots(sim):
    w1 = sim.timer_wheel()
    w2 = sim.timer_wheel()
    assert w1.sleep(5.0) is not w2.sleep(5.0)


# -- wake slab ---------------------------------------------------------------

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
