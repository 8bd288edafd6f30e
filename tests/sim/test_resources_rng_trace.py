"""Unit tests for Resource, RngRegistry and Tracer."""

import pytest

from repro.errors import ResourceError
from repro.sim import Resource, RngRegistry, Simulator, Tracer


# --- Resource ----------------------------------------------------------------

def test_resource_grants_up_to_capacity():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    a = res.acquire()
    b = res.acquire()
    c = res.acquire()
    assert a.triggered and b.triggered and not c.triggered
    assert res.in_use == 2
    res.release()  # the first release hands its unit to ``c``
    assert c.triggered and res.in_use == 2


def test_resource_fifo_granting():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    order = []

    def worker(sim, tag, hold):
        yield res.acquire()
        order.append(("start", tag, sim.now))
        yield sim.timeout(hold)
        res.release()

    sim.process(worker(sim, "a", 2.0))
    sim.process(worker(sim, "b", 1.0))
    sim.process(worker(sim, "c", 1.0))
    sim.run()
    assert order == [("start", "a", 0.0), ("start", "b", 2.0),
                     ("start", "c", 3.0)]


def test_resource_release_idle_raises():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    with pytest.raises(ResourceError):
        res.release()


def test_resource_capacity_validation():
    sim = Simulator()
    with pytest.raises(ResourceError):
        Resource(sim, capacity=0)


def test_resource_handoff_keeps_in_use_constant():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    res.acquire()
    waiter = res.acquire()
    assert not waiter.triggered
    res.release()
    assert waiter.triggered
    assert res.in_use == 1


# --- RngRegistry ---------------------------------------------------------------

def test_rng_same_seed_same_stream_reproducible():
    a = RngRegistry(seed=7).stream("x").random(5)
    b = RngRegistry(seed=7).stream("x").random(5)
    assert (a == b).all()


def test_rng_different_names_independent():
    reg = RngRegistry(seed=7)
    a = reg.stream("x").random(5)
    b = reg.stream("y").random(5)
    assert not (a == b).all()


def test_rng_different_seeds_differ():
    a = RngRegistry(seed=1).stream("x").random(5)
    b = RngRegistry(seed=2).stream("x").random(5)
    assert not (a == b).all()


def test_rng_stream_is_cached_and_continues():
    reg = RngRegistry(seed=0)
    first = reg.stream("s").random(3)
    second = reg.stream("s").random(3)
    # A fresh registry drawing 6 gives first+second concatenated.
    combined = RngRegistry(seed=0).stream("s").random(6)
    assert (combined[:3] == first).all()
    assert (combined[3:] == second).all()


def test_rng_fresh_restarts():
    reg = RngRegistry(seed=0)
    first = reg.stream("s").random(3)
    restarted = reg.fresh("s").random(3)
    assert (first == restarted).all()
    assert "s" in reg


# --- Tracer --------------------------------------------------------------------

def test_tracer_records_and_selects():
    tr = Tracer()
    tr.emit(1.0, "vm.boot", "vm-0", host="pm-0")
    tr.emit(2.0, "vm.shutdown", "vm-0")
    tr.emit(3.0, "task.map.start", "task-1")
    assert tr.count("vm.") == 2
    assert [e.kind for e in tr.select("vm.")] == ["vm.boot", "vm.shutdown"]
    boot = next(tr.select("vm.boot"))
    assert boot["host"] == "pm-0"
    assert boot.time == 1.0


def test_tracer_disabled_records_nothing():
    tr = Tracer(enabled=False)
    tr.emit(1.0, "x", "y")
    assert tr.events == []


def test_tracer_subscription_filtering():
    tr = Tracer()
    seen = []
    tr.subscribe(lambda e: seen.append(e.kind), prefix="net.")
    tr.emit(0.0, "net.flow.start", "s")
    tr.emit(0.0, "vm.boot", "s")
    tr.emit(0.0, "net.flow.end", "s")
    assert seen == ["net.flow.start", "net.flow.end"]


def test_tracer_subscribers_fire_even_when_disabled():
    tr = Tracer(enabled=False)
    seen = []
    tr.subscribe(lambda e: seen.append(e.kind))
    tr.emit(0.0, "anything", "s")
    assert seen == ["anything"]
    assert tr.events == []
