"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.errors import SimulationError
from repro.sim import FairShareSystem, PeriodicCall, SharedResource, Simulator


def later(sim, delay, value):
    """An event that succeeds with ``value`` ``delay`` seconds from now."""
    ev = sim.event()
    sim.call_in(delay, ev.succeed, value)
    return ev


def test_empty_run_leaves_clock_at_zero():
    sim = Simulator()
    sim.run()
    assert sim.now == 0.0


def test_timeout_advances_clock():
    sim = Simulator()
    sim.timeout(5.0)
    sim.run()
    assert sim.now == 5.0


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.timeout(-1.0)


def test_run_until_stops_clock_exactly():
    sim = Simulator()
    sim.timeout(10.0)
    sim.run(until=4.0)
    assert sim.now == 4.0
    sim.run()
    assert sim.now == 10.0


def test_run_until_past_raises():
    sim = Simulator()
    sim.timeout(1.0)
    sim.run()
    with pytest.raises(SimulationError):
        sim.run(until=0.5)


def test_process_returns_value():
    sim = Simulator()

    def body(sim):
        yield sim.timeout(2.0)
        return 42

    proc = sim.process(body(sim))
    sim.run()
    assert proc.value == 42
    assert sim.now == 2.0


def test_process_sequencing_and_values():
    sim = Simulator()
    seen = []

    def body(sim):
        got = yield later(sim, 1.0, "a")
        seen.append((sim.now, got))
        got = yield later(sim, 2.0, "b")
        seen.append((sim.now, got))

    sim.process(body(sim))
    sim.run()
    assert seen == [(1.0, "a"), (3.0, "b")]


def test_processes_wait_on_each_other():
    sim = Simulator()

    def child(sim):
        yield sim.timeout(3.0)
        return "child-result"

    def parent(sim):
        result = yield sim.process(child(sim))
        return result + "!"

    p = sim.process(parent(sim))
    sim.run()
    assert p.value == "child-result!"


def test_simultaneous_events_fifo_order():
    sim = Simulator()
    order = []

    def make(tag):
        def body(sim):
            yield sim.timeout(1.0)
            order.append(tag)
        return body

    for tag in range(5):
        sim.process(make(tag)(sim))
    sim.run()
    assert order == [0, 1, 2, 3, 4]


def test_event_succeed_wakes_waiter():
    sim = Simulator()
    gate = sim.event()
    results = []

    def waiter(sim):
        value = yield gate
        results.append((sim.now, value))

    def opener(sim):
        yield sim.timeout(7.0)
        gate.succeed("open")

    sim.process(waiter(sim))
    sim.process(opener(sim))
    sim.run()
    assert results == [(7.0, "open")]


def test_event_double_trigger_rejected():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_event_value_before_trigger_raises():
    sim = Simulator()
    with pytest.raises(SimulationError):
        _ = sim.event().value


def test_failed_event_throws_into_waiter():
    sim = Simulator()
    boom = sim.event()
    caught = []

    def waiter(sim):
        try:
            yield boom
        except ValueError as exc:
            caught.append(str(exc))

    sim.process(waiter(sim))
    boom.fail(ValueError("kaput"))
    sim.run()
    assert caught == ["kaput"]


def test_unwaited_failed_event_raises_out_of_run():
    sim = Simulator()
    sim.event().fail(RuntimeError("unseen"))
    with pytest.raises(RuntimeError, match="unseen"):
        sim.run()


def test_fail_requires_exception():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.event().fail("not-an-exception")  # type: ignore[arg-type]


def test_process_failure_propagates_to_waiter():
    sim = Simulator()

    def bad(sim):
        yield sim.timeout(1.0)
        raise KeyError("inner")

    def outer(sim):
        try:
            yield sim.process(bad(sim))
        except KeyError:
            return "caught"

    p = sim.process(outer(sim))
    sim.run()
    assert p.value == "caught"


def test_yield_on_already_processed_event():
    sim = Simulator()
    early = later(sim, 1.0, "early")

    def late(sim):
        yield sim.timeout(5.0)
        value = yield early
        return value

    p = sim.process(late(sim))
    sim.run()
    assert p.value == "early"
    assert sim.now == 5.0


def test_yield_non_event_raises_in_process():
    sim = Simulator()

    def bad(sim):
        yield "not an event"

    def outer(sim):
        try:
            yield sim.process(bad(sim))
        except SimulationError:
            return "typed"

    p = sim.process(outer(sim))
    sim.run()
    assert p.value == "typed"


def test_a_process_that_catches_the_non_event_error_keeps_running():
    sim = Simulator()

    def forgiving(sim):
        try:
            yield "not an event"
        except SimulationError:
            yield sim.timeout(2.0)
        return "recovered"

    p = sim.process(forgiving(sim))
    sim.run()
    assert p.value == "recovered" and sim.now == 2.0


def test_cancel_while_waiting_runs_finally_and_never_resumes():
    sim = Simulator()
    log = []

    def sleeper(sim):
        try:
            yield sim.timeout(100.0)
            log.append("resumed")
        finally:
            log.append(("finally", sim.now))

    def canceller(sim, victim):
        yield sim.timeout(2.0)
        victim.cancel()
        log.append("cancelled")

    victim = sim.process(sleeper(sim))
    sim.process(canceller(sim, victim))
    sim.run()
    # The body unwinds synchronously, inside the cancelling step.
    assert log == [("finally", 2.0), "cancelled"]
    assert victim.triggered and victim.value is None
    # The abandoned 100 s timeout still sat in the queue (SimPy semantics);
    # draining it moved the clock to 100 but resumed nobody.
    assert sim.now == 100.0


def test_cancel_of_a_finished_process_is_a_no_op():
    sim = Simulator()

    def quick(sim):
        yield sim.timeout(0.0)
        return "done"

    p = sim.process(quick(sim))
    sim.run()
    p.cancel()
    sim.run()
    assert p.value == "done"


def test_cancel_cascades_to_what_the_process_waits_on():
    """A process cancels the process it waits on, and so on down."""
    sim = Simulator()
    log = []

    def leaf():
        try:
            yield sim.timeout(10.0)
        finally:
            log.append("leaf")

    def middle(child):
        try:
            yield child
        finally:
            log.append("middle")

    child = sim.process(leaf())
    parent = sim.process(middle(child))
    sim.run(until=1.0)
    parent.cancel()
    assert log == ["middle", "leaf"]
    assert parent.triggered and child.triggered


def test_any_of_triggers_on_first():
    sim = Simulator()
    a = later(sim, 1.0, "a")
    b = later(sim, 5.0, "b")

    def body(sim):
        result = yield sim.any_of([a, b])
        return result

    p = sim.process(body(sim))
    sim.run(until=2.0)
    assert p.triggered
    assert p.value == {a: "a"}


def test_all_of_waits_for_all():
    sim = Simulator()
    a = later(sim, 1.0, "a")
    b = later(sim, 5.0, "b")

    def body(sim):
        result = yield sim.all_of([a, b])
        return sorted(result.values())

    p = sim.process(body(sim))
    sim.run()
    assert sim.now == 5.0
    assert p.value == ["a", "b"]


def test_all_of_empty_triggers_immediately():
    sim = Simulator()
    cond = sim.all_of([])
    sim.run()
    assert cond.triggered and cond.value == {}


def test_all_of_with_a_processed_child_waits_for_the_rest():
    sim = Simulator()
    done = later(sim, 0.0, "done")
    sim.run()
    late = sim.event()
    cond = sim.all_of([done, late])
    sim.run()
    assert not cond.triggered  # ``done`` counts once; ``late`` still owed
    late.succeed("late")
    sim.run()
    assert cond.value == {done: "done", late: "late"}


def test_process_on_all_of_with_a_processed_child_resumes_at_the_last():
    sim = Simulator()
    done = later(sim, 0.0, "done")
    sim.run()
    t3, t6 = later(sim, 3.0, 3), later(sim, 6.0, 6)

    def body(sim):
        result = yield sim.all_of([t3, t6, done])
        return sim.now, sorted(map(str, result.values()))

    p = sim.process(body(sim))
    sim.run()
    assert p.value == (6.0, ["3", "6", "done"])


def test_any_of_with_a_processed_child_triggers_at_once():
    sim = Simulator()
    done = later(sim, 0.0, "done")
    sim.run()
    late = later(sim, 4.0, "late")
    cond = sim.any_of([late, done])
    assert cond.triggered and cond.value == {done: "done"}
    sim.run(until=1.0)
    assert cond.value == {done: "done"}


@pytest.mark.parametrize("compose", ["all_of", "any_of"])
def test_a_failing_child_fails_the_condition(compose):
    sim = Simulator()
    done = later(sim, 0.0, "done")
    sim.run()
    boom = sim.event()
    # all_of: the processed child must not end the wait; any_of: the
    # failure comes before any success.
    children = {"all_of": [done, boom],
                "any_of": [boom, later(sim, 5.0, "late")]}[compose]
    caught = []

    def body(sim):
        try:
            yield getattr(sim, compose)(children)
        except KeyError as exc:
            caught.append((sim.now, exc.args))

    sim.process(body(sim))
    sim.call_in(2.0, boom.fail, KeyError("child"))
    sim.run()
    assert caught == [(2.0, ("child",))]


def test_process_body_must_be_generator():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.process(lambda: None)  # type: ignore[arg-type]


def test_clock_is_monotone_across_many_events():
    sim = Simulator()
    stamps = []

    def body(sim, delay):
        yield sim.timeout(delay)
        stamps.append(sim.now)

    for d in (3.0, 1.0, 2.0, 1.0, 0.0):
        sim.process(body(sim, d))
    sim.run()
    assert stamps == sorted(stamps)
    assert sim.now == 3.0


# --- stale wake-ups around cancel() ----------------------------------------

def test_queued_immediate_resume_after_cancel_is_dropped():
    """A cancel must suppress the re-resume queued for a process that
    yielded an already-processed event (the wake-up is stale)."""
    sim = Simulator()
    log = []
    ready = sim.event()
    ready.succeed("early")
    sim.run()  # ready is now processed

    def body():
        try:
            yield ready  # already processed: immediate re-resume pending
            log.append("resumed")
        finally:
            log.append("closed")

    proc = sim.process(body())

    def killer():
        # Runs in the same timestep, after ``proc`` booted and parked
        # behind the immediate re-resume.
        proc.cancel()
        return
        yield  # pragma: no cover

    sim.process(killer())
    sim.run()
    assert log == ["closed"]
    assert proc.triggered


def test_cancel_from_sibling_callback_suppresses_resume():
    """Cancelling from another callback of the *same* event must win,
    even though step() already detached the event's callback list."""
    sim = Simulator()
    log = []
    gate = sim.event()
    holder = {}

    def sibling(_ev):
        holder["proc"].cancel()

    gate.callbacks.append(sibling)

    def body():
        try:
            yield gate
            log.append("resumed")
        finally:
            log.append("closed")

    holder["proc"] = sim.process(body())
    sim.run()  # boot: proc is now waiting on gate, behind ``sibling``
    gate.succeed(None)
    sim.run()
    assert log == ["closed"]


def test_cancel_before_first_resume_never_runs_the_body():
    sim = Simulator()
    started = []

    def body():
        started.append(True)
        yield sim.timeout(1.0)

    proc = sim.process(body())
    proc.cancel()  # before the bootstrap event fires
    sim.run()
    assert not started
    assert proc.triggered
    assert proc.value is None
    assert sim.now == 0.0


def test_second_cancel_is_a_no_op():
    sim = Simulator()
    log = []

    def body():
        try:
            yield sim.timeout(100.0)
        finally:
            log.append("closed")

    proc = sim.process(body())

    def killer():
        yield sim.timeout(1.0)
        proc.cancel()
        proc.cancel()

    sim.process(killer())
    sim.run()
    assert log == ["closed"]
    assert proc.triggered


@pytest.mark.parametrize("compose", ["all_of", "any_of"])
def test_condition_cancels_only_its_pending_children(compose):
    sim = Simulator()
    log = []

    def child(tag, delay):
        try:
            yield sim.timeout(delay)
            log.append(("done", tag))
        finally:
            log.append(("closed", tag))

    early = sim.process(child("early", 1.0))
    late = sim.process(child("late", 5.0))
    plain = sim.event()
    cond = getattr(sim, compose)([early, late, plain])
    sim.run(until=2.0)
    log.clear()
    cond.cancel()
    # Only ``late`` was pending and cancellable; the finished child and
    # the plain event (no work to withdraw) are untouched.
    assert log == [("closed", "late")]
    assert early.value is None and late.triggered
    assert not plain.triggered
    sim.run()
    assert sim.now == 5.0  # the abandoned timeout still drains


# -- end-of-instant hooks ------------------------------------------------------

def test_instant_hook_runs_after_events_enqueued_later_in_the_instant():
    sim = Simulator()
    log = []

    def first():
        yield sim.timeout(1.0)
        sim.at_instant_end(lambda: log.append(("hook", sim.now)))
        log.append("first")
        # Enqueued *after* the hook was registered, still at t=1.
        sim.process(second())

    def second():
        log.append("second")
        yield sim.timeout(0.0)
        log.append("second again")

    sim.process(first())
    sim.timeout(2.0).callbacks.append(lambda _ev: log.append("t=2"))
    sim.run()
    assert log == ["first", "second", "second again", ("hook", 1.0), "t=2"]


def test_instant_hook_runs_before_run_until_parks_the_clock():
    sim = Simulator()
    seen = []
    sim.timeout(10.0)
    sim.at_instant_end(lambda: seen.append(sim.now))
    sim.run(until=4.0)
    assert seen == [0.0] and sim.now == 4.0
    # ... also when the queue is empty and run() only has the clock to move
    sim.run()
    sim.at_instant_end(lambda: seen.append(sim.now))
    sim.run(until=20.0)
    assert seen == [0.0, 10.0] and sim.now == 20.0


def test_instant_hook_runs_before_peek_reports_a_later_time():
    sim = Simulator()
    seen = []
    sim.timeout(3.0)
    # The hook may itself schedule the next event; peek() must see it.
    sim.at_instant_end(lambda: seen.append(sim.timeout(1.0)))
    assert sim.peek() == 0.0 and seen == []  # a pending hook is an entry
    sim.step()  # runs the hook without moving the clock
    assert sim.now == 0.0 and len(seen) == 1 and sim.events_processed == 1
    assert sim.peek() == 1.0
    assert sim.peek() == 1.0 and len(seen) == 1  # exactly once


def test_instant_hook_waits_while_an_equal_time_event_is_pending():
    sim = Simulator()
    log = []
    sim.at_instant_end(lambda: log.append("hook"))
    # Armed after the hook, still at now: the ordinary band pops first.
    sim.timeout(0.0).callbacks.append(lambda _ev: log.append("event"))
    assert sim.peek() == 0.0
    assert log == []          # peek() runs nothing
    sim.step()
    assert log == ["event"]   # step() ran the event, not the hook
    assert sim.peek() == 0.0  # the hook is still due at now
    sim.step()
    assert log == ["event", "hook"] and sim.now == 0.0
    assert sim.peek() == float("inf")


def test_instant_hook_that_enqueues_work_at_now_defers_the_rest():
    sim = Simulator()
    log = []

    def noisy():
        log.append("noisy")
        sim.timeout(0.0).callbacks.append(lambda _ev: log.append("work"))

    sim.at_instant_end(noisy)
    sim.at_instant_end(lambda: log.append("quiet"))
    sim.timeout(1.0)
    sim.run()
    assert log == ["noisy", "work", "quiet"]


def test_run_until_may_return_with_a_hook_pending():
    sim = Simulator()
    log = []

    def body():
        yield sim.timeout(1.0)
        sim.at_instant_end(lambda: log.append(sim.now))

    proc = sim.process(body())
    sim.timeout(5.0)
    sim.run_until(proc)
    assert log == [] and sim.now == 1.0
    assert sim.peek() == 1.0  # the hook is pending before t=5
    sim.step()  # runs the hook without moving the clock
    assert log == [1.0] and sim.now == 1.0
    sim.step()
    assert sim.now == 5.0


def test_raising_instant_hook_propagates_and_keeps_the_rest():
    sim = Simulator()
    log = []

    def bad():
        raise RuntimeError("hook failed")

    sim.at_instant_end(bad)
    sim.at_instant_end(lambda: log.append("next"))
    sim.timeout(1.0)
    with pytest.raises(RuntimeError, match="hook failed"):
        sim.run()
    assert log == [] and sim.now == 0.0
    sim.run()  # the failed hook is gone, the other still owed
    assert log == ["next"] and sim.now == 1.0


class _SteppingSimulator(Simulator):
    """A class-level wrapper around ``step`` that marks the span inside
    one, as a tracer hooked on ``step`` would see it."""

    inside = False

    def step(self):
        self.inside = True
        try:
            super().step()
        finally:
            self.inside = False


class _FlushLog(FairShareSystem):
    """Records ``(now, inside a step)`` for every flush with work to do."""

    def __init__(self, sim):
        super().__init__(sim)
        self.flushes = []

    def settle(self):
        if self._seeds is not None:
            self.flushes.append((self.sim.now, self.sim.inside))
        super().settle()


def test_a_flush_runs_inside_step_under_run_with_until():
    sim = _SteppingSimulator()
    fss = _FlushLog(sim)
    link = SharedResource("link", 100.0)

    def body():
        yield sim.timeout(1.0)
        yield fss.open([link], size=100.0).done

    sim.process(body())
    sim.run(until=5.0)
    assert sim.now == 5.0 and fss.completed_count == 1
    assert fss.flushes == [(1.0, True), (2.0, True)]


# -- call_in: plain scheduled callbacks ---------------------------------------

def test_call_in_fires_at_now_plus_delay_with_its_args():
    sim = Simulator()
    sim.run(until=2.0)
    log = []
    sim.call_in(1.5, lambda *args: log.append((sim.now, args)), "a", 7)
    sim.run()
    assert log == [(3.5, ("a", 7))]
    assert sim.events_processed == 1


def test_call_in_is_fifo_with_events_armed_at_the_same_instant():
    sim = Simulator()
    log = []
    sim.timeout(1.0).callbacks.append(lambda _ev: log.append("timeout"))
    sim.call_in(1.0, log.append, "call")
    sim.timeout(1.0).callbacks.append(lambda _ev: log.append("timeout again"))
    sim.call_in(1.0, log.append, "call again")
    sim.run()
    assert log == ["timeout", "call", "timeout again", "call again"]


def test_cancelled_call_is_pruned_without_moving_the_clock():
    sim = Simulator()
    log = []
    call = sim.call_in(5.0, log.append, "never")
    call.cancel()
    sim.run()
    assert log == [] and sim.now == 0.0
    assert sim.cancelled_pruned == 1 and sim.events_processed == 0


def test_call_in_rejects_a_negative_delay():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.call_in(-1.0, print)
    assert sim.peek() == float("inf")


def test_raising_call_propagates_out_of_run():
    sim = Simulator()

    def bad():
        raise RuntimeError("callback failed")

    sim.call_in(1.0, bad)
    sim.call_in(2.0, bad)
    with pytest.raises(RuntimeError, match="callback failed"):
        sim.run()
    assert sim.now == 1.0 and sim.peek() == 2.0  # the rest is still queued


def test_instant_hook_runs_after_a_zero_delay_call_armed_in_the_instant():
    sim = Simulator()
    log = []

    def first():
        sim.at_instant_end(lambda: log.append(("hook", sim.now)))
        sim.call_in(0.0, log.append, "hop")
        log.append("first")

    sim.call_in(1.0, first)
    sim.call_in(2.0, log.append, "t=2")
    sim.run()
    assert log == ["first", "hop", ("hook", 1.0), "t=2"]


@pytest.mark.parametrize("arm", [
    lambda sim: sim.call_in(3.0, print),
], ids=["call_in"])
def test_run_and_run_until_on_an_all_cancelled_heap(arm):
    assert not hasattr(Simulator().timeout(3.0), "cancel")  # calls only
    sim = Simulator()
    arm(sim).cancel()
    sim.run(until=1.0)
    assert sim.now == 1.0 and sim.cancelled_pruned == 1
    arm(sim).cancel()
    sim.run()  # drains without firing or moving the clock
    assert sim.now == 1.0 and sim.cancelled_pruned == 2
    arm(sim).cancel()
    with pytest.raises(SimulationError, match="drained"):
        sim.run_until(sim.event())
    with pytest.raises(SimulationError, match="empty"):
        sim.step()
    assert sim.events_processed == 0


def test_run_with_a_pending_hook_and_nothing_else_runs_the_hook():
    sim = Simulator()
    log = []
    sim.at_instant_end(lambda: sim.timeout(1.0).callbacks.append(
        lambda _ev: log.append("armed by hook")))
    sim.run(until=0.5)   # the hook runs; what it armed is past ``until``
    assert log == [] and sim.now == 0.5
    sim.run()
    assert log == ["armed by hook"] and sim.now == 1.0
    # run_until: a hook that arms the awaited event is honoured, too.
    done = sim.event()
    sim.at_instant_end(lambda: sim.call_in(2.0, done.succeed, "late"))
    sim.run_until(done)
    assert done.value == "late" and sim.now == 3.0


# -- PeriodicCall: the one self-re-arming loop --------------------------------

def test_periodic_call_stopped_from_its_own_tick_leaves_nothing_armed():
    sim = Simulator()
    ticks = []

    def tick():
        ticks.append(sim.now)
        if sim.now >= 10.0:
            loop.stop()
        return 5.0

    loop = PeriodicCall(sim, tick)
    loop.start()
    loop.start()  # idempotent: still one chain
    sim.run()  # drains: nothing is armed for t=15
    assert ticks == [0.0, 5.0, 10.0]
    assert not loop.running and sim.now == 10.0
    loop.stop()  # idempotent
    assert sim.cancelled_pruned == 0


def test_periodic_call_restarted_from_its_own_tick_keeps_one_chain():
    sim = Simulator()
    ticks = []

    def tick():
        ticks.append(sim.now)
        if sim.now == 5.0 and ticks.count(5.0) == 1:
            loop.stop()
            loop.start()  # ticks again this instant; must not arm twice
        return 5.0

    loop = PeriodicCall(sim, tick)
    loop.start()
    sim.run(until=12.0)
    assert ticks == [0.0, 5.0, 5.0, 10.0]
    loop.stop()
    sim.run()
    assert sim.now == 12.0 and sim.cancelled_pruned == 1


def test_periodic_call_reads_the_interval_when_it_re_arms():
    sim = Simulator()
    ticks = []
    interval = [5.0]

    def tick():
        ticks.append(sim.now)
        return interval[0]

    loop = PeriodicCall(sim, tick)
    loop.start()
    sim.run(until=7.0)       # ticked at 0 and 5; armed for 10
    interval[0] = 2.0        # takes effect from the next re-arm
    sim.run(until=15.0)
    loop.stop()
    assert ticks == [0.0, 5.0, 10.0, 12.0, 14.0]
