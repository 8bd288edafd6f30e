"""The one-queue kernel against the side-list kernel it replaced.

``Simulator.at_instant_end`` pushes its callback as a queue entry in the
``INSTANT_END`` band, so it pops after every ordinary entry of the instant
and runs inside ``step()``; ``run_until`` is one ``step()`` per entry and
``call_in`` pushes its own heap entry.  The reference below is the kernel
they used to be: callbacks wait in a side list that ``peek()`` drains
(``_end_instant``) once nothing live is due at ``now``, ``run_until``
peeks first, raises when the queue has drained, then steps, and
``call_in`` goes through ``_enqueue``.  Hypothesis draws schedules of
``call_in``/cancel, timeouts, process waits, instant-end hooks (some
enqueueing at ``now``) and callbacks that schedule more work, driven by
``run_until`` or ``run(until=...)``; both kernels must leave the same log,
clock and count of cancelled entries (pruned or still queued), and the same
event count once the callbacks, which the new kernel counts as events, are
taken off.
"""

from heapq import heappop

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim import Simulator
from repro.sim.kernel import _INF, ScheduledCall

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
    """The old dispatch paths and the end-of-instant side list, kept here
    as the oracle."""

    def __init__(self):
        super().__init__()
        self._instant_hooks = []

    def at_instant_end(self, callback):
        self._instant_hooks.append(callback)

    def _prune_cancelled(self):
        heap = self._heap
        while heap and heap[0][2]._cancelled:
            heappop(heap)
            self.cancelled_pruned += 1

    def _end_instant(self):
        """Run pending callbacks while nothing live is due at ``now``."""
        hooks = self._instant_hooks
        heap = self._heap
        while hooks and not (heap and heap[0][0] <= self.now):
            hooks.pop(0)()
            self._prune_cancelled()

    def peek(self):
        heap = self._heap
        if heap and heap[0][2]._cancelled:
            self._prune_cancelled()
        if self._instant_hooks:
            self._end_instant()
        return heap[0][0] if heap else _INF

    def step(self):
        heap = self._heap
        if ((not heap or heap[0][2]._cancelled or self._instant_hooks)
                and self.peek() == _INF):
            raise SimulationError("step() on an empty event queue: drained")
        super().step()

    def call_in(self, delay, fn, *args):
        call = ScheduledCall(fn, args)
        self._enqueue(call, delay)
        return call

    def run_until(self, event):
        while not event._processed:
            if self.peek() == _INF:
                raise SimulationError(
                    "event queue drained before the awaited event triggered")
            self.step()


def _play(sim, script, fan_out, n_initial, done_at, cancel_done, until):
    """Run one drawn script: ``run_until`` an awaited event when ``until``
    is None, else ``run(until=until)``."""
    world = _World(sim, script, fan_out)
    done = sim.event()
    if done_at is not None:
        call = sim.call_in(done_at, done.succeed, "done")
        if cancel_done:
            call.cancel()
    for _ in range(n_initial):
        world.act()
    try:
        if until is None:
            sim.run_until(done)
        else:
            sim.run(until=until)
        raised = None
    except SimulationError as exc:
        raised = "drained" in str(exc)
    hooks_run = len(world.hooks_inside)
    # The two kernels may prune a cancelled head at different moments, but
    # every cancelled entry is either pruned or still queued.
    cancelled = sim.cancelled_pruned + sum(
        entry[2]._cancelled for entry in sim._heap)
    state = (world.log, sim.now, cancelled, raised)
    return state, sim.events_processed, hooks_run, world.hooks_inside


@settings(max_examples=300, deadline=None)
@given(script=_OPS, fan_out=st.integers(0, 2), n_initial=st.integers(1, 6),
       done_at=st.one_of(st.none(), st.sampled_from(DELAYS)),
       cancel_done=st.booleans(),
       until=st.one_of(st.none(), st.sampled_from((0.0, 1.0, 2.5, 10.0))))
def test_run_until_and_call_in_match_the_reference_kernel(
        script, fan_out, n_initial, done_at, cancel_done, until):
    args = (script, fan_out, n_initial, done_at, cancel_done, until)
    reference, ref_events, ref_hooks, _ = _play(_ReferenceSimulator(), *args)
    sim = _CountingSimulator()
    state, events, hooks_run, hooks_inside = _play(sim, *args)
    assert state == reference and hooks_run == ref_hooks
    # A callback is one processed event here and none in the reference.
    assert events - hooks_run == ref_events
    raised = state[-1]
    assert raised in (None, True)  # a drained queue says so
    # One step() per processed entry (plus the one that found the queue
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
    # arm, hop, the callback, done.succeed and done itself
    assert sim.steps == sim.events_processed == 5


def test_run_until_on_a_drained_queue_raises_from_step():
    sim = _CountingSimulator()
    sim.at_instant_end(lambda: None)
    with pytest.raises(SimulationError, match="drained"):
        sim.run_until(sim.event())
    # The callback is one step and one event; the next step finds the
    # queue drained.
    assert sim.steps == 2 and sim.events_processed == 1
