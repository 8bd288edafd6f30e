"""Properties of the incremental connected-component fair-share engine.

Three invariants protect the optimization:

* **allocation exactness** — after *every* rebalance of any
  open/close/set_capacity/advance sequence, the timer-driven ones inside
  ``sim.run`` included, every active flow's rate equals what the
  reference global progressive fill
  (:func:`repro.sim.fairshare._maxmin_rates`, the oracle) computes over
  the whole flow graph.  Progress advancement is shared and global, so
  equal rates at every rebalance imply equal completion timestamps;
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

from repro.sim import FairShareSystem, SharedResource, Simulator
from repro.sim.fairshare import _maxmin_rates, _maxmin_rates_scoped
from repro.telemetry.metrics import MetricsRegistry

_SLOW = dict(deadline=None,
             suppress_health_check=[HealthCheck.too_slow])

_CAPACITIES = (50.0, 100.0, 200.0, 400.0)
_SIZES = (10.0, 100.0, 1000.0, math.inf)
_CAPS = (None, 25.0, 60.0)
_DTS = (0.25, 0.5, 1.0, 2.0)

#: (op, selector a, selector b) — interpreted against the live state, so
#: every generated sequence is valid by construction.
_ops = st.lists(
    st.tuples(st.sampled_from(["open", "close", "setcap", "advance"]),
              st.integers(0, 2 ** 30), st.integers(0, 2 ** 30)),
    min_size=1, max_size=30)


class _OracleCheckedSystem(FairShareSystem):
    """Asserts the whole-graph oracle's rates after every rebalance."""

    def _rebalance(self, seed_resources):
        super()._rebalance(seed_resources)
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


def _apply(sim, fss, resources, ops):
    """Interpret an op sequence; returns every flow ever opened."""
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
        yield flows


def _components(fss):
    return list({id(f._comp): f._comp for f in fss._flows}.values())


_graphs = given(n_res=st.integers(2, 6),
                cap_picks=st.lists(st.integers(0, 3), min_size=6, max_size=6),
                ops=_ops)


@_graphs
@settings(max_examples=60, **_SLOW)
def test_incremental_rates_match_global_oracle(n_res, cap_picks, ops):
    """Scoped rates == whole-graph oracle rates at every rebalance,
    mutation- or timer-driven, through to the drain of all finite flows."""
    sim, fss, resources = _build(n_res, cap_picks)
    for _flows in _apply(sim, fss, resources, ops):
        pass
    sim.run(until=sim.now + 120.0)  # drain: timer-driven rebalances only


@_graphs
@settings(max_examples=50, **_SLOW)
def test_maintained_incidence_matches_recount(n_res, cap_picks, ops):
    """``nlive``/``capped`` survive attach, detach, merge and split."""
    sim, fss, resources = _build(n_res, cap_picks)
    for _flows in _apply(sim, fss, resources, ops):
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
    rebalances = fss.rebalance_count
    rate = background.rate
    flow = fss.open([link], size=0.0)
    assert flow.done.triggered and flow.end_time == sim.now
    assert flow.remaining == 0.0
    assert fss.rebalance_count == rebalances  # flow set never changed
    assert background.rate == rate
    sim.run(until=1.0)
    assert flow.done.processed and flow.done.value is flow


def test_superseded_timers_are_cancelled_not_leaked():
    """Every rebalance re-derives the completion timer; the superseded one
    must leave the kernel heap via cancel(), not linger until its time."""
    sim = Simulator()
    fss = FairShareSystem(sim)
    link = SharedResource("link", 100.0)
    for i in range(20):
        fss.open([link], size=1000.0, name=f"f{i}")
    assert fss.timer_cancellations >= 19
    sim.run()
    assert fss.completed_count == 20
    # The kernel actually dropped the dead entries instead of firing them.
    assert sim.cancelled_pruned >= 19


def test_engine_metrics_flow_into_registry():
    metrics = MetricsRegistry()
    sim = Simulator()
    fss = FairShareSystem(sim, metrics=metrics)
    link = SharedResource("link", 100.0)
    for i in range(3):
        fss.open([link], size=100.0, name=f"f{i}")
    sim.run()
    assert metrics.get("fairshare.rebalances").value == fss.rebalance_count
    assert metrics.get("fairshare.flow.visits").value == fss.flow_visits
    assert (metrics.get("fairshare.timer.cancellations").value
            == fss.timer_cancellations)
    hist = metrics.get("fairshare.component.flows")
    assert hist.count >= 3 and hist.max <= fss.max_component_flows
