"""Generator-coroutine discrete-event simulation kernel.

A :class:`Simulator` owns a virtual clock and a priority queue of pending
events.  *Processes* are plain Python generators that ``yield`` events; when
a yielded event triggers, the kernel resumes the generator with the event's
value (or throws the event's exception into it).  Work nothing waits on
needs neither: :meth:`Simulator.call_in` schedules a plain callback as one
queue entry — the one way to wait for a time outside a process — and
:class:`PeriodicCall` is the ``call_in`` chain that re-arms itself.

Cancellation is synchronous: :func:`cancel` runs an event's own
``cancel()``.  A :class:`Process` closes where it waits and cancels that
event, :class:`AllOf`/:class:`AnyOf` cancel their pending children, and
a :class:`~repro.sim.fairshare.FlowOp` bills what moved.  A timeout or
an acquire has none: it is simply no longer waited on.

A process starts, and resumes on an already-processed event, through a
:meth:`Simulator.call_in` entry at ``now``.  :class:`AnyOf`/:class:`AllOf`
count the child successes they still need (one, or all); a processed
child counts at once and a failing child fails the condition.

The kernel is deliberately small — just enough for the vHadoop models — but
it enforces its invariants strictly: no scheduling in the past, no double
trigger, one deterministic order: entries pop by ``(time, band, seq)``, so
an instant's ordinary entries run FIFO before its FIFO :data:`INSTANT_END`
band (:meth:`Simulator.at_instant_end`).

Example
-------
>>> sim = Simulator()
>>> def proc(sim):
...     yield sim.timeout(2.0)
...     return "done"
>>> p = sim.process(proc(sim))
>>> sim.run()
>>> sim.now, p.value
(2.0, 'done')
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, Optional

from repro.errors import SimulationError

_INF = float("inf")

#: Offset of the end-of-instant band: ``(now, INSTANT_END + seq)`` pops
#: after every ordinary entry due at ``now``, before any later time.
INSTANT_END = 1 << 62

#: Type of a simulation process body.
ProcessGenerator = Generator["Event", Any, Any]


class Event:
    """A one-shot occurrence in simulated time.

    An event starts *pending*, becomes *triggered* when given a value via
    :meth:`succeed` (or an exception via :meth:`fail`), and is *processed*
    once the kernel has run its callbacks.  Processes waiting on the event
    are resumed with its value.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_triggered",
                 "_processed")

    #: Only a :class:`ScheduledCall` can be withdrawn from the queue; the
    #: class-level constant keeps the kernel's prune test one attribute read.
    _cancelled = False

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: list[Callable[[Event], None]] = []
        self._value: Any = None
        self._ok: bool = True
        self._triggered = False
        self._processed = False

    # -- state ---------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has a value (it may not yet be processed)."""
        return self._triggered

    @property
    def ok(self) -> bool:
        """True if the event succeeded (valid only once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value; raises if the event failed."""
        if not self._triggered:
            raise SimulationError(f"{self!r} has no value yet")
        if not self._ok:
            raise self._value
        return self._value

    # -- triggering ----------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        self._pre_trigger()
        self._value = value
        self._ok = True
        self.sim._enqueue(self, 0.0)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed; waiters get ``exception`` thrown."""
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() needs an exception, got {exception!r}")
        self._pre_trigger()
        self._value = exception
        self._ok = False
        self.sim._enqueue(self, 0.0)
        return self

    def _pre_trigger(self) -> None:
        if self._triggered:
            raise SimulationError(f"{self!r} already triggered")
        self._triggered = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "processed" if self._processed else (
            "triggered" if self._triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


def cancel(event: Event) -> None:
    """Withdraw the work ``event`` stands for, if it has a ``cancel()``."""
    withdraw = getattr(event, "cancel", None)
    if withdraw is not None:
        withdraw()


class Timeout(Event):
    """An event that triggers ``delay`` seconds after its creation."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", delay: float):
        super().__init__(sim)
        sim._enqueue(self, delay)

    def _pre_trigger(self) -> None:
        raise SimulationError("a Timeout fires by itself; do not trigger it")


class ScheduledCall:
    """Handle for one :meth:`Simulator.call_in` callback.

    Not an :class:`Event`: nothing can wait on it or yield it.  All a
    holder can do is :meth:`cancel` it before it fires.
    """

    __slots__ = ("fn", "args", "_cancelled")

    def __init__(self, fn: Callable[..., None], args: tuple):
        self.fn = fn
        self.args = args
        self._cancelled = False

    def cancel(self) -> None:
        """Withdraw the call; its queue entry is pruned, not fired."""
        self._cancelled = True


class PeriodicCall:
    """A :meth:`Simulator.call_in` chain that re-arms itself.

    ``tick()`` does one round's work and returns the seconds until the
    next; the first round runs at the instant of :meth:`start`.  While
    stopped nothing is queued, so the loop neither keeps ``run()`` alive
    nor drags the clock to its next boundary.  ``tick`` may stop or
    restart its own loop.
    """

    __slots__ = ("sim", "tick", "running", "_timer")

    def __init__(self, sim: "Simulator", tick: Callable[[], float]):
        self.sim = sim
        self.tick = tick
        self.running = False
        self._timer: Optional[ScheduledCall] = None

    def start(self) -> None:
        """Begin ticking (idempotent)."""
        if not self.running:
            self.running = True
            self._timer = self.sim.call_in(0.0, self._fire)

    def stop(self) -> None:
        """Stop ticking and withdraw the armed call (idempotent)."""
        self.running = False
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _fire(self) -> None:
        self._timer = None
        delay = self.tick()
        # ``tick`` may have stopped the loop, or restarted it (armed again).
        if self.running and self._timer is None:
            self._timer = self.sim.call_in(delay, self._fire)


class Process(Event):
    """A running process; also an event that triggers when the body returns.

    The process body is a generator yielding :class:`Event` instances.  The
    generator's ``return`` value becomes the process event's value; an
    uncaught exception fails the process event.
    """

    __slots__ = ("_generator", "_waiting_on", "name")

    def __init__(self, sim: "Simulator", generator: ProcessGenerator,
                 name: Optional[str] = None):
        super().__init__(sim)
        if not hasattr(generator, "send"):
            raise SimulationError(f"process body must be a generator, got "
                                  f"{type(generator).__name__}")
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._waiting_on: Optional[Event] = None
        sim.call_in(0.0, self._step, None, False)  # start at ``now``

    def cancel(self) -> None:
        """Succeed with ``None`` where the body waits: detach it, close it
        (``finally`` blocks run) and cancel what it waited on.  A finished
        process is left alone."""
        if self._triggered:
            return
        target, self._waiting_on = self._waiting_on, None
        self.succeed(None)
        if target is not None and self._resume in target.callbacks:
            target.callbacks.remove(self._resume)
        self._generator.close()
        if target is not None:
            cancel(target)

    # -- internal ------------------------------------------------------------
    def _resume(self, event: Event) -> None:
        self._step(event._value, not event._ok)

    def _step(self, value: Any, throw: bool) -> None:
        if self._triggered:
            # Cancelled after this wake-up was queued: cancel cannot reach
            # a queued start or re-resume, or a list step() is draining.
            return
        self._waiting_on = None  # a finished body keeps nothing alive
        try:
            if throw:
                target = self._generator.throw(value)
            else:
                target = self._generator.send(value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:
            self.fail(exc)
            return
        if not isinstance(target, Event):
            self._step(SimulationError(
                f"process {self.name!r} yielded non-event {target!r}"), True)
            return
        if target.sim is not self.sim:
            self.fail(SimulationError("yielded event belongs to another simulator"))
            return
        self._waiting_on = target
        if target._processed:
            # Already done: resume at the current time.
            self.sim.call_in(0.0, self._resume, target)
        else:
            target.callbacks.append(self._resume)


class _Condition(Event):
    """A composite event that counts the child successes it still needs.

    A child that was already processed counts at once; the first failing
    child fails the condition.  The value is ``{child: value}`` of the
    children that have succeeded so far.
    """

    __slots__ = ("events", "_needed")

    def __init__(self, sim: "Simulator", events: Iterable[Event],
                 every: bool):
        super().__init__(sim)
        self.events = list(events)
        for ev in self.events:
            if ev.sim is not sim:
                raise SimulationError("condition mixes simulators")
        n = len(self.events)
        self._needed = n if every else min(1, n)
        if not self._needed:
            self.succeed({})
        for ev in self.events:
            if ev._processed:
                self._on_child(ev)
            else:
                ev.callbacks.append(self._on_child)

    def _on_child(self, event: Event) -> None:
        if self._triggered:
            return
        if not event._ok:
            self.fail(event._value)
            return
        self._needed -= 1
        if not self._needed:
            self.succeed({ev: ev._value for ev in self.events
                          if ev._triggered and ev._ok})

    def cancel(self) -> None:
        """Cancel the children still pending."""
        for ev in self.events:
            if not ev._triggered:
                cancel(ev)


class AnyOf(_Condition):
    """Triggers when any child event succeeds (at once if there are none)."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim, events, every=False)


class AllOf(_Condition):
    """Triggers when every child event has succeeded."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim, events, every=True)


class Simulator:
    """The event loop: virtual clock plus a time-ordered event queue."""

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: list[tuple[float, int, Event | ScheduledCall]] = []
        self._seq = 0
        #: Events processed by :meth:`step` (perf-harness counter).
        self.events_processed = 0
        #: High-water mark of the pending-event heap.
        self.max_heap_size = 0
        #: Cancelled entries dropped without processing.
        self.cancelled_pruned = 0

    # -- factories -----------------------------------------------------------
    def event(self) -> Event:
        """Create a fresh untriggered event."""
        return Event(self)

    def timeout(self, delay: float) -> Timeout:
        """Create an event that triggers ``delay`` seconds from now."""
        return Timeout(self, delay)

    def call_in(self, delay: float, fn: Callable[..., None],
                *args: Any) -> ScheduledCall:
        """Call ``fn(*args)`` ``delay`` seconds from now: one queue entry,
        no :class:`Event`, no generator.  Use it for a timer or a callback
        chain nothing waits on; an exception in ``fn`` propagates out of
        :meth:`step`.  Pushes its own entry, as :meth:`_enqueue` would."""
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay} s in the past")
        call = ScheduledCall(fn, args)
        self._seq += 1
        heap = self._heap
        heappush(heap, (self.now + delay, self._seq, call))
        if len(heap) > self.max_heap_size:
            self.max_heap_size = len(heap)
        return call

    def process(self, generator: ProcessGenerator,
                name: Optional[str] = None) -> Process:
        """Start a process from a generator; returns its completion event."""
        return Process(self, generator, name=name)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    # -- queue ---------------------------------------------------------------
    def _enqueue(self, event: Event, delay: float) -> None:
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay} s in the past")
        self._seq += 1
        heap = self._heap
        heappush(heap, (self.now + delay, self._seq, event))
        if len(heap) > self.max_heap_size:
            self.max_heap_size = len(heap)

    def at_instant_end(self, callback: Callable[[], None]) -> None:
        """Call ``callback()`` once, after every ordinary entry due now
        (also those enqueued later) and before the clock moves.  It is a
        queue entry in the :data:`INSTANT_END` band: ``peek()`` reports
        ``now`` while it is pending, running it is one processed event, and
        callbacks run FIFO.  The fair-share flush batches an instant's
        changes into one fill this way (``FairShareSystem.settle``)."""
        self._seq += 1
        heap = self._heap
        heappush(heap, (self.now, INSTANT_END + self._seq,
                        ScheduledCall(callback, ())))
        if len(heap) > self.max_heap_size:
            self.max_heap_size = len(heap)

    def peek(self) -> float:
        """Time of the next live entry (``now`` while an end-of-instant
        callback is pending), or ``inf`` if the queue is empty."""
        heap = self._heap
        while heap and heap[0][2]._cancelled:
            heappop(heap)
            self.cancelled_pruned += 1
        return heap[0][0] if heap else _INF

    def step(self) -> None:
        """Process exactly one queue entry: an event, a :meth:`call_in`
        callback or an end-of-instant callback.  Cancelled head entries
        are pruned first, so a caller needs no ``peek()`` of its own."""
        heap = self._heap
        if (not heap or heap[0][2]._cancelled) and self.peek() == _INF:
            raise SimulationError("step() on an empty event queue: drained")
        time, _seq, event = heappop(heap)
        if time < self.now:  # pragma: no cover - defensive
            raise SimulationError("event queue went backwards")
        self.now = time
        self.events_processed += 1
        if type(event) is ScheduledCall:
            event.fn(*event.args)
            return
        callbacks, event.callbacks = event.callbacks, []
        event._triggered = True  # Timeouts trigger when they fire.
        event._processed = True
        for callback in callbacks:
            callback(event)
        # Unwaited failures must not pass silently.
        if not event._ok and not callbacks:
            raise event._value

    def run_until(self, event: Event) -> None:
        """Process events until ``event`` has been processed.

        Unlike :meth:`run`, this terminates even when perpetual background
        processes (monitors, heartbeats) keep the queue non-empty.  One
        :meth:`step` per event; a queue that drains first raises from it.
        """
        step = self.step
        while not event._processed:
            step()

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains or the clock would pass ``until``.

        When ``until`` is given, the clock is left exactly at ``until`` if
        the simulation did not finish earlier.
        """
        if until is not None and until < self.now:
            raise SimulationError(f"until={until} is in the past (now={self.now})")
        bound = _INF if until is None else until
        while self.peek() <= bound and self._heap:  # inf <= inf: drained
            self.step()
        if until is not None and until > self.now:
            self.now = until
