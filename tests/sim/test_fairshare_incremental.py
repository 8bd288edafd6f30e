"""Properties of the incremental connected-component fair-share engine.

Four invariants protect the optimization:

* **allocation exactness** — after *every* flush of any
  open/close/set_capacity/advance sequence, the timer-driven ones inside
  ``sim.run`` included, every active flow's rate equals what the
  reference global progressive fill
  (:func:`repro.sim.fairshare._maxmin_rates`, the oracle) computes over
  the whole flow graph.  Progress advancement is shared and global, so
  equal rates at every flush imply equal completion timestamps;
* **coalescing is unobservable** — the engine recomputes rates once per
  simulated instant; the same op sequence with ``settle()`` forced after
  every op (the old eager engine, which survives only here) yields the
  same timestamps, transfers and integrals, from no fewer rebalances;
* **maintained incidence is exact** — every component's ``nlive``
  (per-resource live-flow counts over deduped paths) and ``capped`` set
  always equal a from-scratch recount, through opens, closes, merges and
  splits;
* **indexed fills change nothing** — :func:`_maxmin_rates_scoped` fed the
  maintained indices returns the oracle's rates bit for bit.

Capacities, sizes, and caps are drawn from discrete pools on purpose: the
exactness claim excludes adversarial *sub-epsilon* cross-component ties
(saturation levels unequal but within 1e-12 of each other), which cannot
arise from exact discrete inputs.
"""

import math

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.errors import SimulationError
from repro.sim import FairShareSystem, SharedResource, Simulator
from repro.sim.fairshare import _maxmin_rates, _maxmin_rates_scoped

_SLOW = dict(deadline=None,
             suppress_health_check=[HealthCheck.too_slow])

_CAPACITIES = (50.0, 100.0, 200.0, 400.0)
_SIZES = (10.0, 100.0, 1000.0, math.inf)
_CAPS = (None, 25.0, 60.0)
_DTS = (0.25, 0.5, 1.0, 2.0)

#: (op, selector a, selector b) — interpreted against the live state, so
#: every generated sequence is valid by construction.  Consecutive
#: non-"advance" ops share one simulated instant: a burst the engine
#: coalesces into one flush.
_ops = st.lists(
    st.tuples(st.sampled_from(["open", "close", "setcap", "advance"]),
              st.integers(0, 2 ** 30), st.integers(0, 2 ** 30)),
    min_size=1, max_size=30)


class _OracleCheckedSystem(FairShareSystem):
    """Asserts the whole-graph oracle's rates after every flush."""

    def _rebalance(self, seeds):
        super()._rebalance(seeds)
        oracle = _maxmin_rates(self._flows)
        for flow in self._flows:
            assert flow.rate == oracle[flow], (
                f"{flow.name}: engine {flow.rate!r} != oracle "
                f"{oracle[flow]!r} at t={self.sim.now}")


def _build(n_res, cap_picks):
    sim = Simulator()
    fss = _OracleCheckedSystem(sim)
    resources = [
        SharedResource(f"r{i}", _CAPACITIES[cap_picks[i % len(cap_picks)]
                                            % len(_CAPACITIES)])
        for i in range(n_res)]
    return sim, fss, resources


def _apply(sim, fss, resources, ops, eager=False):
    """Interpret an op sequence, yielding every flow opened so far.

    ``eager`` settles after every op, i.e. one rebalance per op as before
    the engine coalesced; otherwise a same-instant burst is flushed by the
    kernel when the next "advance" moves the clock.
    """
    flows = []
    n_res = len(resources)
    for op, a, b in ops:
        if op == "open":
            first = a % n_res
            path = [resources[first]]
            if b % 3:  # 1-3 distinct resources
                path.append(resources[(first + 1 + a % (n_res - 1)) % n_res])
            if b % 3 == 2 and n_res > 2:
                extra = resources[(first + 2) % n_res]
                if extra not in path:
                    path.append(extra)
            flows.append(fss.open(path, size=_SIZES[a % len(_SIZES)],
                                  cap=_CAPS[b % len(_CAPS)],
                                  name=f"f{len(flows)}"))
        elif op == "close":
            if flows:
                flow = flows[a % len(flows)]
                if flow.active:
                    fss.close(flow)
        elif op == "setcap":
            fss.set_capacity(resources[a % n_res],
                             _CAPACITIES[b % len(_CAPACITIES)])
        else:  # advance simulated time, letting completions fire
            sim.run(until=sim.now + _DTS[a % len(_DTS)])
        if eager:
            fss.settle()
        yield flows


def _components(fss):
    return list({id(f._comp): f._comp for f in fss._flows}.values())


_GRAPH = dict(n_res=st.integers(2, 6),
              cap_picks=st.lists(st.integers(0, 3), min_size=6, max_size=6),
              ops=_ops)
_graphs = given(**_GRAPH)
_graphs_both_modes = given(**_GRAPH, eager=st.booleans())


@_graphs_both_modes
@settings(max_examples=80, **_SLOW)
def test_incremental_rates_match_global_oracle(n_res, cap_picks, ops, eager):
    """Scoped rates == whole-graph oracle rates at every flush, burst- or
    timer-driven, through to the drain of all finite flows."""
    sim, fss, resources = _build(n_res, cap_picks)
    for _flows in _apply(sim, fss, resources, ops, eager):
        pass
    sim.run(until=sim.now + 120.0)  # drain: timer-driven flushes only


def _outcome(n_res, cap_picks, ops, eager):
    sim, fss, resources = _build(n_res, cap_picks)
    flows = []
    for flows in _apply(sim, fss, resources, ops, eager):
        pass
    sim.run(until=sim.now + 120.0)
    now = sim.now
    return ([(f.end_time, f.transferred) for f in flows],
            [r.busy_time(now) for r in resources]
            + [r.moved_through(now) for r in resources],
            fss.rebalance_count)


@_graphs
@settings(max_examples=80, **_SLOW)
def test_coalesced_flush_equals_settle_after_every_op(n_res, cap_picks, ops):
    """Differential: one flush per instant vs a rebalance per op.  The
    intermediate rates of a burst last zero simulated seconds, so they
    may not move a completion timestamp, a byte count (both exact) or an
    integral.  The integrals get one part in 1e12: a load is a float sum
    over an id-hashed set, so two separately built systems can disagree
    in its last bit whatever the mode, and a burst whose net load change
    is zero makes the eager side accrue one interval as two partial sums.
    A load the flush failed to refresh would be off by whole rates."""
    flows, integrals, rebalances = _outcome(n_res, cap_picks, ops, False)
    e_flows, e_integrals, e_rebalances = _outcome(n_res, cap_picks, ops, True)
    assert flows == e_flows
    assert integrals == pytest.approx(e_integrals, rel=1e-12, abs=1e-12)
    assert rebalances <= e_rebalances


@_graphs_both_modes
@settings(max_examples=50, **_SLOW)
def test_maintained_incidence_matches_recount(n_res, cap_picks, ops, eager):
    """``nlive``/``capped`` survive attach, detach, merge and split."""
    sim, fss, resources = _build(n_res, cap_picks)
    for _flows in _apply(sim, fss, resources, ops, eager):
        for comp in _components(fss):
            nlive = {}
            capped = set()
            for f in comp.flows:
                for res in f._upath:
                    nlive[res] = nlive.get(res, 0) + 1
                if math.isfinite(f.cap):
                    capped.add(f)
            assert comp.nlive == nlive
            assert comp.capped == capped


@_graphs
@settings(max_examples=50, **_SLOW)
def test_indexed_fill_matches_oracle(n_res, cap_picks, ops):
    """Per component, the indexed fill returns the oracle's rates."""
    sim, fss, resources = _build(n_res, cap_picks)
    for _flows in _apply(sim, fss, resources, ops):
        for comp in _components(fss):
            indexed, _visits = _maxmin_rates_scoped(comp.flows, comp.nlive,
                                                    comp.capped)
            assert indexed == _maxmin_rates(comp.flows)


def test_busy_time_history_survives_capacity_change():
    """Regression: set_capacity must not rescale already-integrated load.

    50 u/s on a 100 u/s resource for 10 s is 5.0 fraction-seconds; halving
    the capacity afterwards must leave those 5.0 untouched (the old code
    divided the whole absolute integral by the *current* capacity,
    retroactively doubling history to 10.0).
    """
    sim = Simulator()
    fss = FairShareSystem(sim)
    link = SharedResource("link", 100.0)
    fss.open([link], size=math.inf, cap=50.0)
    sim.run(until=10.0)
    fss.set_capacity(link, 50.0)
    assert link.busy_time(sim.now) == pytest.approx(5.0)
    # From here on the same 50 u/s saturates the halved capacity.
    sim.run(until=15.0)
    assert link.busy_time(sim.now) == pytest.approx(5.0 + 5.0)


def test_zero_size_open_completes_without_rebalance():
    sim = Simulator()
    fss = FairShareSystem(sim)
    link = SharedResource("link", 100.0)
    background = fss.open([link], size=math.inf)
    fss.settle()
    rebalances = fss.rebalance_count
    rate = background.rate
    flow = fss.open([link], size=0.0)
    assert flow.done.triggered and flow.end_time == sim.now
    assert flow.remaining == 0.0
    fss.settle()
    assert fss.rebalance_count == rebalances  # flow set never changed
    assert background.rate == rate == 100.0
    sim.run(until=1.0)
    assert flow.done.processed and flow.done.value is flow


def _live_timers(sim):
    return [ev for _t, _seq, ev in sim._heap if not ev._cancelled]


def test_superseded_timers_are_cancelled_not_leaked():
    """A same-instant burst arms one completion timer, and a flush that
    supersedes an armed timer withdraws it via cancel() — the kernel heap
    never holds more than one live fair-share timer."""
    sim = Simulator()
    fss = FairShareSystem(sim)
    link = SharedResource("link", 100.0)
    for i in range(20):  # distinct sizes: completions never coincide
        fss.open([link], size=1000.0 + i, name=f"f{i}")
    fss.settle()
    assert fss.rebalance_count == 1 and fss.timer_cancellations == 0
    assert len(_live_timers(sim)) == 1
    for i in range(20):  # one burst per instant, each supersedes a timer
        sim.run(until=sim.now + 1.0)
        fss.open([link], size=2000.0 + i, name=f"g{i}")
        fss.settle()
        assert len(_live_timers(sim)) == 1
    assert fss.timer_cancellations == 20
    sim.run()
    assert fss.completed_count == 40
    # The kernel actually dropped the dead entries instead of firing them,
    # and they never piled up: at most the live timer, one superseded
    # timer awaiting its prune, and one flow's ``done`` were ever queued.
    assert sim.cancelled_pruned == 20
    assert sim.max_heap_size <= 3


def test_time_passing_with_unsettled_rates_is_an_error():
    """Stale rates are impossible, not merely untested: if the clock moves
    without the kernel's end-of-instant hooks having run, the next
    advance refuses to integrate over the unflushed interval."""
    sim = Simulator()
    fss = FairShareSystem(sim)
    link = SharedResource("link", 100.0)
    fss.open([link], size=1000.0)
    sim.now = 1.0  # what a broken kernel (or a test poking the clock) does
    with pytest.raises(SimulationError, match="never settled"):
        fss.open([link], size=1000.0)


def test_settle_is_idempotent_and_on_demand():
    sim = Simulator()
    fss = FairShareSystem(sim)
    link = SharedResource("link", 100.0)
    a = fss.open([link], size=1000.0)
    b = fss.open([link], size=1000.0)
    assert (a.rate, b.rate, link.current_load) == (0.0, 0.0, 0.0)
    assert fss.active_flows == {a, b}  # a reader: settles first
    assert (a.rate, b.rate, link.current_load) == (50.0, 50.0, 100.0)
    assert fss.rebalance_count == 1
    fss.settle()
    sim.run(until=1.0)  # the kernel's own flush finds nothing to do
    assert fss.rebalance_count == 1
