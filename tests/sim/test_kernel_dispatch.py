"""``run_until`` against a manual ``peek()``/``step()`` loop.

``Simulator.run_until`` dispatches each event with one ``step()`` call;
``step`` prunes cancelled heads and runs pending end-of-instant callbacks
itself, and ``call_in`` pushes its own heap entry.  The reference below is
the kernel they used to be: ``run_until`` peeks first, raises when the
queue has drained, then steps, and ``call_in`` goes through
``_enqueue``.  Hypothesis draws
schedules of ``call_in``/cancel, timeouts, process waits, instant-end
hooks (some enqueueing at ``now``) and callbacks that schedule more work;
both drivers must leave the same log, clock and kernel counters.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim import Simulator
from repro.sim.kernel import ScheduledCall

KINDS = ("call", "cancel", "timeout", "process", "wait", "hook", "hook_now")
DELAYS = (0.0, 0.0, 0.5, 1.0, 2.5)

_OPS = st.lists(st.tuples(st.sampled_from(KINDS), st.sampled_from(DELAYS)),
                max_size=50)


class _World:
    """Interprets one drawn script; every callback consumes more of it."""

    def __init__(self, sim, script, fan_out):
        self.sim = sim
        self.ops = iter(enumerate(script))
        self.fan_out = fan_out
        self.calls = []
        self.log = []
        #: Per instant-end hook: did it run inside a ``step()``?
        self.hooks_inside = []

    def act(self):
        op = next(self.ops, None)
        if op is None:
            return
        label, (kind, delay) = op
        sim = self.sim
        if kind == "call":
            self.calls.append(sim.call_in(delay, self.fire, label))
        elif kind == "cancel":
            if self.calls:
                self.calls.pop(len(self.calls) // 2).cancel()
        elif kind == "timeout":
            sim.timeout(delay).callbacks.append(
                lambda _ev: self.fire(label))
        elif kind == "process":
            sim.process(self._sleeper(label, delay))
        elif kind == "wait":
            event = sim.event()
            sim.call_in(delay, event.succeed, label)
            sim.process(self._waiter(event))
        elif kind == "hook":
            sim.at_instant_end(lambda: self.hook(self.fire, label))
        else:  # hook_now: an instant-end hook that enqueues at ``now``
            sim.at_instant_end(lambda: self.hook(
                sim.call_in, 0.0, self.fire, label))

    def hook(self, fn, *args):
        self.hooks_inside.append(getattr(self.sim, "inside", None))
        fn(*args)

    def fire(self, label):
        self.log.append((self.sim.now, label))
        for _ in range(self.fan_out):
            self.act()

    def _sleeper(self, label, delay):
        yield self.sim.timeout(delay)
        self.fire(label)
        yield self.sim.timeout(0.0)
        self.log.append((self.sim.now, label, "resumed"))

    def _waiter(self, event):
        label = yield event
        self.fire(("waited", label))


class _CountingSimulator(Simulator):
    """A class-level wrapper around ``step``: counts calls and marks the
    span inside one, so a hook can tell whether it ran inside a step."""

    def __init__(self):
        super().__init__()
        self.steps = 0
        self.inside = False

    def step(self):
        self.steps += 1
        self.inside = True
        try:
            super().step()
        finally:
            self.inside = False


class _ReferenceSimulator(Simulator):
    """The old dispatch paths, kept here as the oracle."""

    def call_in(self, delay, fn, *args):
        call = ScheduledCall(fn, args)
        self._enqueue(call, delay)
        return call

    def run_until(self, event):
        while not event._processed:
            if self.peek() == float("inf"):
                raise SimulationError(
                    "event queue drained before the awaited event triggered")
            self.step()


def _play(sim, script, fan_out, n_initial, done_at, cancel_done):
    world = _World(sim, script, fan_out)
    done = sim.event()
    if done_at is not None:
        call = sim.call_in(done_at, done.succeed, "done")
        if cancel_done:
            call.cancel()
    for _ in range(n_initial):
        world.act()
    try:
        sim.run_until(done)
        raised = None
    except SimulationError as exc:
        raised = "drained" in str(exc)
    state = (world.log, sim.now, sim.events_processed, sim.cancelled_pruned,
             sim.max_heap_size, sim.wake_events_reused, raised)
    return state, world.hooks_inside


@settings(max_examples=300, deadline=None)
@given(script=_OPS, fan_out=st.integers(0, 2), n_initial=st.integers(1, 6),
       done_at=st.one_of(st.none(), st.sampled_from(DELAYS)),
       cancel_done=st.booleans())
def test_run_until_and_call_in_match_the_reference_kernel(
        script, fan_out, n_initial, done_at, cancel_done):
    args = (script, fan_out, n_initial, done_at, cancel_done)
    reference, _ = _play(_ReferenceSimulator(), *args)
    sim = _CountingSimulator()
    state, hooks_inside = _play(sim, *args)
    assert state == reference
    raised = state[-1]
    assert raised in (None, True)  # a drained queue says so
    # One step() per processed event (plus the one that found the queue
    # drained), and every instant-end hook ran inside a step.
    assert sim.steps == sim.events_processed + (raised is not None)
    assert all(hooks_inside)


def test_instant_end_callbacks_run_inside_step_under_run_until():
    sim = _CountingSimulator()
    seen = []
    done = sim.event()

    def arm():
        sim.at_instant_end(lambda: seen.append((sim.now, sim.inside)))
        sim.call_in(0.0, seen.append, "hop")

    sim.call_in(1.0, arm)
    sim.call_in(2.0, done.succeed)
    sim.run_until(done)
    assert seen == ["hop", (1.0, True)]
    assert sim.steps == sim.events_processed == 4  # done.succeed: 2


def test_run_until_on_a_drained_queue_raises_from_step():
    sim = _CountingSimulator()
    sim.at_instant_end(lambda: None)
    with pytest.raises(SimulationError, match="drained"):
        sim.run_until(sim.event())
    assert sim.steps == 1 and sim.events_processed == 0
