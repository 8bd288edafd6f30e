"""The counter-based :class:`SlotModelBackend` against its generator-worker
predecessor, kept here verbatim as a test oracle only, and the
multi-histogram ``observe`` against N single ones, ``subtract`` against
``merge``."""

from collections import deque
from heapq import heappush
from typing import Callable, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud import CostModel, LatencyHistogram, SlotModelBackend
from repro.cloud.controller import _SurrogatePool
from repro.cloud.traffic import Arrival
from repro.errors import ConfigError
from repro.sim.kernel import INSTANT_END, Event, Simulator, Timeout


class FinishFirst(Timeout):
    """A job-finish timeout that pops before every other entry of its
    instant (FIFO among its kind): the slot model's tie rule in kernel
    terms, a band below the ordinary one as ``INSTANT_END`` is above."""

    __slots__ = ()

    def __init__(self, sim, delay):
        Event.__init__(self, sim)
        self.delay = delay
        sim._seq += 1
        heappush(sim._heap, (sim.now + delay, sim._seq - INSTANT_END, self))


class GeneratorWorkerBackend:
    """The backend as it was before ``Simulator.call_in``: one perpetual
    worker process per slot, parked on an event while idle."""

    def __init__(self, sim, cost: CostModel, slots: int,
                 elastic_max: int = 512, boot_s: float = 45.0):
        if slots < 1:
            raise ConfigError("slots must be >= 1")
        self.sim = sim
        self.cost = cost
        self.slots = 0
        #: Set by the controller: ``on_done(tenant, submitted_at,
        #: started_at, finished_at, ok)``.
        self.on_done: Optional[Callable] = None
        self._queue: deque = deque()   # (tenant, size_mb, enqueued_at)
        #: One park event per idle worker — a submission wakes exactly one
        #: worker, not the whole pool (no thundering herd at 1M arrivals).
        self._parked: deque = deque()
        self._retiring = 0
        self.busy = 0
        self.pool = _SurrogatePool(self, min_size=slots,
                                   max_size=elastic_max, boot_s=boot_s)
        for _ in range(slots):
            self.add_slot()

    # -- capacity ----------------------------------------------------------
    def add_slot(self) -> None:
        self.slots += 1
        self.sim.process(self._worker(), name="svc-surrogate:slot")

    def remove_slot(self) -> bool:
        """Gracefully retire one slot (takes effect between jobs)."""
        if self.slots - self._retiring <= 0:
            return False
        self._retiring += 1
        self._signal()  # a parked worker can exit immediately
        return True

    def total_slots(self) -> int:
        return self.slots - self._retiring

    def backlog(self) -> int:
        return len(self._queue)

    def utilization(self) -> float:
        total = self.total_slots()
        return self.busy / total if total > 0 else 1.0

    # -- the service loop --------------------------------------------------
    def submit(self, arrival: Arrival, spec) -> None:
        self._queue.append((arrival.tenant, arrival.size_mb, self.sim.now))
        self._signal()

    def _signal(self) -> None:
        if self._parked:
            self._parked.popleft().succeed(None)

    def _worker(self):
        while True:
            if self._retiring > 0:
                self._retiring -= 1
                self.slots -= 1
                return
            if not self._queue:
                park = self.sim.event()
                self._parked.append(park)
                yield park
                continue
            tenant, size_mb, enqueued_at = self._queue.popleft()
            started_at = self.sim.now
            self.busy += 1
            yield FinishFirst(self.sim, self.cost.service_time(size_mb))
            self.busy -= 1
            if self.on_done is not None:
                self.on_done(tenant, enqueued_at, started_at, self.sim.now,
                             True)


# -- the differential schedule ---------------------------------------------
# Everything lives on one grid: op instants, service times (1, 2 or 3 s)
# and the boot delay are whole seconds, so finishes, boot completions and
# ops tie exactly.  A job's finish comes before every other entry of its
# instant (the oracle's ``FinishFirst``).  Each instant applies an *early*
# batch, armed before the run, and a *late* one armed by a zero-delay hop
# — the two places a control tick can fall.  Within a batch submissions
# come last: the oracle starts a job one wake-up hop after ``submit``, so
# a same-batch read or ``remove_slot`` *behind* a submission sees that
# hop's in-between state, which the counter model has deliberately lost.

_CAPACITY_OP = st.one_of(
    st.tuples(st.sampled_from(["add", "remove", "probe", "shrink"]),
              st.just(0)),
    st.tuples(st.just("grow"), st.integers(1, 3)))
_SUBMIT = st.tuples(st.just("submit"), st.integers(0, 2))
_BATCH = st.tuples(st.lists(_CAPACITY_OP, max_size=3),
                   st.lists(_SUBMIT, max_size=3)).map(lambda b: b[0] + b[1])
_SCHEDULE = st.dictionaries(st.integers(0, 10), st.tuples(_BATCH, _BATCH),
                            max_size=8)


def _arrival(at, tenant, size_mb):
    return Arrival(at, tenant, "small", size_mb, f"{tenant}@{at}")


def _drive(backend_cls, schedule, slots, boot_s):
    sim = Simulator()
    # One starting slot is the pool's floor; the rest join on top of it.
    backend = backend_cls(sim, CostModel(base_s=1.0, per_mb_s=1.0),
                          slots=1, elastic_max=6, boot_s=boot_s)
    for _ in range(slots - 1):
        backend.add_slot()
    completions, probes = [], []
    backend.on_done = lambda tenant, at, started_at, finished_at, _ok: \
        completions.append((tenant, finished_at, started_at - at))
    pool = backend.pool

    def probe(tag):
        probes.append((tag, sim.now, backend.slots, backend.total_slots(),
                       backend.busy, backend.backlog(), pool.size))

    def apply(batch, late):
        for n, (op, arg) in enumerate(batch):
            if op == "submit":
                backend.submit(_arrival(sim.now, f"t{n}", float(arg)), None)
            elif op == "add":
                backend.add_slot()
            elif op == "remove":
                backend.remove_slot()
            elif op == "grow":
                probes.append(("grew", pool.grow(arg)))
            elif op == "shrink":
                probes.append(("shrank", pool.shrink()))
            else:
                probe("mid")
        if late is not None:
            sim.call_in(0.0, apply, late, None)
            sim.at_instant_end(lambda: probe("settled"))

    for at, (early, late) in sorted(schedule.items()):
        sim.call_in(float(at), apply, early, late)
    sim.run()
    probe("drained")
    return completions, probes, sim.events_processed


@given(schedule=_SCHEDULE, slots=st.integers(1, 3),
       boot_s=st.sampled_from([0.0, 1.0, 2.0]))
@settings(max_examples=300, deadline=None)
def test_counter_backend_equals_the_generator_worker_oracle(schedule, slots,
                                                            boot_s):
    want = _drive(GeneratorWorkerBackend, schedule, slots, boot_s)
    got = _drive(SlotModelBackend, schedule, slots, boot_s)
    assert got[0] == want[0]        # (tenant, finish time, wait_s) sequence
    assert got[1] == want[1]        # every probe, mid-instant and settled
    assert got[2] <= want[2]        # and never more kernel events


def test_a_finish_between_an_idle_retirement_and_its_hop_retires_once():
    """The case one shared retiring counter gets wrong: the finish due at
    this instant must not take the idle slot's retirement for its own."""
    sim = Simulator()
    backend = SlotModelBackend(sim, CostModel(base_s=2.0, per_mb_s=0.0),
                               slots=3)
    sim.run()
    # Due at t=2 in arming order: remove_slot, the finish, the reader —
    # and then the hop remove_slot armed.
    sim.call_in(2.0, backend.remove_slot)
    backend.submit(_arrival(0.0, "t", 1.0), None)
    seen = []
    sim.call_in(2.0, lambda: seen.append(
        (backend.slots, backend.total_slots(), backend.busy)))
    sim.run()
    assert seen == [(3, 2, 0)]      # left the idle pool, still in ``slots``
    assert (backend.slots, backend.total_slots()) == (2, 2)


def test_a_finish_is_seen_by_an_arrival_armed_before_it_at_its_instant():
    """The tie rule: the arrival at t=2 was armed before the job whose
    finish ties it, and still finds that slot free."""
    sim = Simulator()
    backend = SlotModelBackend(sim, CostModel(base_s=2.0, per_mb_s=0.0),
                               slots=1)
    done, seen = [], []
    backend.on_done = lambda tenant, *instants: done.append(
        (tenant,) + instants)
    sim.run()

    def arrive():
        seen.append((backend.busy, backend.backlog()))
        backend.submit(_arrival(sim.now, "second", 0.0), None)
        seen.append((backend.busy, backend.backlog()))

    sim.call_in(2.0, arrive)
    backend.submit(_arrival(0.0, "first", 0.0), None)
    sim.run()
    assert seen == [(0, 0), (1, 0)]
    assert done == [("first", 0.0, 0.0, 2.0, True),
                    ("second", 2.0, 2.0, 4.0, True)]


def test_run_alone_finishes_every_job_at_its_own_instant():
    """Nothing reads the backend while it runs: the backstop alone drives
    every completion, each reported at its finish, and the clock stops at
    the last one."""
    sim = Simulator()
    backend = SlotModelBackend(sim, CostModel(base_s=3.0, per_mb_s=1.0),
                               slots=2)
    done = []
    backend.on_done = lambda tenant, _at, started, finished, _ok: \
        done.append((tenant, started, finished))
    for n, size_mb in enumerate([1.0, 2.0, 0.0, 4.0, 1.0]):
        backend.submit(_arrival(0.0, f"t{n}", size_mb), None)
    sim.run()
    assert done == [("t0", 0.0, 4.0), ("t1", 0.0, 5.0), ("t2", 4.0, 7.0),
                    ("t4", 7.0, 11.0), ("t3", 5.0, 12.0)]
    assert sim.now == 12.0
    assert (backend.busy, backend.backlog(), sim.peek()) == (0, 0,
                                                             float("inf"))


# -- satellite: shrink() honours min_size ----------------------------------

def test_shrink_stops_at_min_size_before_retirements_have_landed():
    sim = Simulator()
    backend = SlotModelBackend(sim, CostModel(), slots=4)   # the floor
    backend.add_slot()
    sim.run()
    assert [backend.pool.shrink() for _ in range(3)] == [1, 0, 0]
    assert backend.pool.size == 5      # unchanged until the slot has left
    sim.run()
    assert (backend.slots, backend.pool.size) == (4, 4)


def test_repeated_shrink_ticks_on_a_busy_pool_stop_at_min_size():
    sim = Simulator()
    backend = SlotModelBackend(sim, CostModel(base_s=100.0, per_mb_s=0.0),
                               slots=2)                     # the floor
    backend.add_slot()
    backend.add_slot()
    sim.run()
    for n in range(4):
        backend.submit(_arrival(0.0, f"t{n}", 1.0), None)
    stopped = [backend.pool.shrink() for _tick in range(5)]
    assert stopped == [1, 1, 0, 0, 0]
    sim.run()
    assert backend.slots == backend.total_slots() == 2


# -- one bin lookup for several histograms ---------------------------------

def _state(hist):
    return (list(hist.counts), hist.count, hist.total, hist.min_seen,
            hist.max_seen)


_LATENCIES = st.lists(st.floats(0.0, 2e5, allow_nan=False), max_size=40)


@given(values=_LATENCIES, n_also=st.integers(0, 3))
@settings(max_examples=100, deadline=None)
def test_multi_histogram_observe_equals_single_observes(values, n_also):
    """``a.observe(v, b, c)`` leaves a, b and c exactly as ``a.observe(v);
    b.observe(v); c.observe(v)`` does — ``total`` to the last bit, since
    each histogram still adds the values one by one in the same order."""
    together = [LatencyHistogram() for _ in range(1 + n_also)]
    apart = [LatencyHistogram() for _ in range(1 + n_also)]
    for hist in together[1:] + apart[1:]:
        hist.observe(17.0)          # not all start from the same state
    for value in values:
        together[0].observe(value, *together[1:])
        for hist in apart:
            hist.observe(value)
    assert [_state(h) for h in together] == [_state(h) for h in apart]


@given(kept=_LATENCIES, other=_LATENCIES)
@settings(max_examples=100, deadline=None)
def test_subtract_undoes_merge(kept, other):
    """``merge`` then ``subtract`` of the same histogram restores the bin
    counts and ``count`` exactly and ``total`` to rounding; ``min_seen``
    and ``max_seen`` are the fields a subtraction cannot restore and does
    not touch."""
    hist, part = LatencyHistogram(), LatencyHistogram()
    for value in kept:
        hist.observe(value)
    for value in other:
        part.observe(value)
    counts, n, total, _, _ = _state(hist)
    hist.merge(part)
    merged_extremes = (hist.min_seen, hist.max_seen)
    hist.subtract(part)
    assert (hist.counts, hist.count) == (counts, n)
    assert hist.total == pytest.approx(total, abs=1e-6 * (1 + part.total))
    assert (hist.min_seen, hist.max_seen) == merged_extremes


@pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf"),
                                 float("-inf")])
def test_a_rejected_observation_leaves_every_histogram_untouched(bad):
    first, second = LatencyHistogram(), LatencyHistogram()
    first.observe(3.0, second)
    before = (_state(first), _state(second))
    with pytest.raises(ConfigError):
        first.observe(bad)
    with pytest.raises(ConfigError):
        first.observe(bad, second)
    assert (_state(first), _state(second)) == before
    assert first.count == sum(first.counts)
