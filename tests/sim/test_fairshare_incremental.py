"""Properties of the flow-class fair-share engine.

Six invariants protect it:

* **allocation within the stated bound of exact max-min** — after *every*
  flush of any open/close/set_capacity/advance sequence, the
  timer-driven ones inside ``sim.run`` included, every active flow's rate
  lies within the ``repro.sim.fairshare`` docstring's bound of the rate an
  exact progressive fill in :class:`fractions.Fraction`
  (:func:`_exact_maxmin`, the oracle) computes over the whole flow graph;
* **completion times are exact integrals** — each flow's ``end_time`` and
  ``transferred`` equal the exact rational integral of its recorded rate
  history within the module docstring's bound;
* **coalescing is unobservable** — the engine recomputes rates once per
  simulated instant; the same op sequence with ``settle()`` forced after
  every op yields the same timestamps, transfers and integrals, from no
  fewer rebalances;
* **maintained incidence is exact** — every class's membership and every
  component's ``nlive`` (per-resource live-flow counts) and ``capped``
  set always equal a from-scratch recount, through opens, closes,
  completions, merges and splits;
* **the binding set is sound** — after every flush each component's
  binding set lies within its resources and carries their ``nlive``
  counts, every resource outside it passes its slack certificate, every
  resource in it saturated in the accepted fill or fails its certificate
  (the flush dropped all it could), each class's restricted path is its
  path intersected with it, and the fill over it gives the rates *and*
  ``flow_visits`` of a fill over every resource;
* **class fills stay within the bound** — :func:`_fill` fed the
  maintained indices gives each class's every member a rate within the
  bound of the oracle's, and saturates the resources the exact fill binds
  unless two exact levels tie inside the bound.

Capacities, sizes and caps are drawn from continuous ranges.  Two
components whose saturation levels round one ulp apart are in
:func:`test_cross_component_ulp_tie_stays_within_bound`.
"""

import math
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.errors import ResourceError, SimulationError
from repro.sim import FairShareSystem, SharedResource, Simulator
from repro.sim import fairshare
from repro.sim.fairshare import _fill, _slack
from repro.sim.kernel import INSTANT_END

_SLOW = dict(deadline=None,
             suppress_health_check=[HealthCheck.too_slow])

_CAPACITY = st.floats(10.0, 1000.0)
_DTS = (0.25, 0.5, 1.0, 2.0)

#: (op, selector a, selector b, amount, cap) — interpreted against the
#: live state, so every generated sequence is valid by construction.  An
#: "open" moves ``amount`` units (infinitely many when ``a % 4 == 3``) at
#: most at ``cap`` units/s; a "setcap" sets a capacity of ``amount``.
#: Consecutive non-"advance" ops share one simulated instant: a burst the
#: engine coalesces into one flush.
_ops = st.lists(
    st.tuples(st.sampled_from(["open", "close", "setcap", "advance"]),
              st.integers(0, 2 ** 30), st.integers(0, 2 ** 30),
              st.floats(1.0, 1000.0), st.none() | st.floats(1.0, 300.0)),
    min_size=1, max_size=30)

_ULP = Fraction(1, 2 ** 52)


def _exact_maxmin(flows):
    """The oracle: progressive filling in exact rationals over the whole
    flow graph, reading nothing of the engine's state.  Each round finds
    the lowest saturation level ``(capacity - frozen load) / unfrozen
    flows`` or cap, raises the common level to it, and freezes there the
    unfrozen flows of the caps and resources found.  Exact levels never
    fall.

    Returns ``(rates, bounds, saturated, margin)``: each flow's exact
    rate, the contract's bound on its float rate (the
    ``repro.sim.fairshare`` docstring derives it), the resources that
    bound a round, and how far above its round's level the nearest
    resource or cap that round did not bind lay — the exact levels tie
    inside the bound when the margin is within two thirds of it, the one
    case where the fill may saturate other resources.
    """
    unfrozen = set(flows)
    frozen_load, budget, through = {}, {}, {}
    for flow in unfrozen:
        for res in flow.path:
            frozen_load[res] = budget[res] = Fraction(0)
            through.setdefault(res, []).append(flow)
    rates, bounds, saturated = {}, {}, set()
    margin, level, bound = math.inf, Fraction(0), Fraction(0)
    while unfrozen:
        sat_levels, slop = {}, Fraction(0)
        for res, crossing in through.items():
            n = sum(1 for f in crossing if f in unfrozen)
            if n:
                capacity = Fraction(res.capacity)
                sat_levels[res] = (capacity - frozen_load[res]) / n
                slop = max(slop, (budget[res] + 2 * (len(crossing) + 1)
                                  * _ULP * capacity) / n)
        caps = {f: Fraction(f.cap) for f in unfrozen if f.cap != math.inf}
        next_level = min([*sat_levels.values(), *caps.values()])
        assert next_level >= level, "an exact level fell"
        level = next_level
        bound = max(bound, 3 * slop)
        newly_frozen = {f for f, cap in caps.items() if cap == next_level}
        for res, sat in sat_levels.items():
            if sat == next_level:
                saturated.add(res)
                newly_frozen.update(f for f in through[res] if f in unfrozen)
        margin = min([margin, *(x - next_level for x in
                                (*sat_levels.values(), *caps.values())
                                if x != next_level)])
        for flow in newly_frozen:
            rates[flow] = level
            bounds[flow] = bound
            for res in flow.path:
                frozen_load[res] += level
                budget[res] += bound
        unfrozen -= newly_frozen
    return rates, bounds, saturated, margin


def _assert_within_bound(rates, flows):
    """Every flow's float rate against the exact oracle's bound; returns
    the oracle's answer."""
    oracle = exact, bounds, _saturated, _margin = _exact_maxmin(flows)
    for flow in flows:
        err = abs(Fraction(rates[flow]) - exact[flow])
        assert err <= bounds[flow], (
            f"{flow.name}: rate {rates[flow]!r} is {float(err):.3g} from "
            f"the exact {float(exact[flow])!r}, over the bound "
            f"{float(bounds[flow]):.3g}")
    return oracle


class _OracleCheckedSystem(FairShareSystem):
    """Asserts the bound against the whole-graph exact oracle after every
    flush."""

    def _rebalance(self, seeds):
        super()._rebalance(seeds)
        flows = self.active_flows
        _assert_within_bound({f: f.rate for f in flows}, flows)


def _full_path_fill(classes, nlive, capped):
    """:func:`_fill` with every resource in the binding set, as it must
    fill between flushes, when certificates may be stale."""
    saved = [(c, c.bpath) for c in classes]
    for c in classes:
        c.bpath = c.path
    try:
        return _fill(classes, nlive, capped)
    finally:
        for c, bpath in saved:
            c.bpath = bpath


def _assert_binding_sound(fss):
    for comp in _components(fss):
        binding = comp.binding
        assert binding.keys() <= comp.resources
        assert binding == {r: comp.nlive[r] for r in binding}
        for res in comp.resources - binding.keys():
            assert _slack(res, res.current_load, comp.nlive.get(res, 0)), \
                f"{res.name} left the binding set without slack"
        for c in comp.classes:
            assert c.bpath == tuple(r for r in c.path if r in binding)


class _BindingCheckedSystem(FairShareSystem):
    """Asserts, after every flush, the binding-set invariants and that the
    accepted fill matches a full-path fill over the same scope in rates
    and in the ``flow_visits`` it booked."""

    def _rebalance(self, seeds):
        visits = self.flow_visits
        fills = []

        def recorded_fill(*args):
            fills.append(_fill(*args))
            return fills[-1]

        fairshare._fill = recorded_fill
        try:
            super()._rebalance(seeds)
        finally:
            fairshare._fill = _fill
        comps = {id(r._comp): r._comp for r in seeds
                 if r._comp is not None}.values()
        classes = set().union(*(c.classes for c in comps))
        saturated = fills[-1][2] if fills else set()
        for comp in comps:  # what dropping over every bound resource leaves
            for res, n in comp.binding.items():
                assert res in saturated or not _slack(
                    res, res.current_load, n), \
                    f"{res.name} stayed bound with slack"
        if classes:
            nlive = {}
            for comp in comps:
                nlive.update(comp.nlive)
            rates, full_visits, _saturated = _full_path_fill(
                classes, nlive, set().union(*(c.capped for c in comps)))
            assert {c: c.rate for c in classes} == rates
            assert self.flow_visits - visits == full_visits
        _assert_binding_sound(self)


class _FullyCheckedSystem(_BindingCheckedSystem, _OracleCheckedSystem):
    """Both of the above after every flush."""


def _build(n_res, capacities, system=None):
    sim = Simulator()
    fss = (system or _OracleCheckedSystem)(sim)
    resources = [SharedResource(f"r{i}", capacities[i % len(capacities)])
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
    for op, a, b, amount, cap in ops:
        if op == "open":
            first = a % n_res
            path = [resources[first]]
            if b % 3:  # 1-3 distinct resources
                path.append(resources[(first + 1 + a % (n_res - 1)) % n_res])
            if b % 3 == 2 and n_res > 2:
                extra = resources[(first + 2) % n_res]
                if extra not in path:
                    path.append(extra)
            flows.append(fss.open(path, size=math.inf if a % 4 == 3
                                  else amount, cap=cap,
                                  name=f"f{len(flows)}"))
        elif op == "close":
            if flows:
                flow = flows[a % len(flows)]
                if flow.active:
                    fss.close(flow)
        elif op == "setcap":
            fss.set_capacity(resources[a % n_res], amount)
        else:  # advance simulated time, letting completions fire
            sim.run(until=sim.now + _DTS[a % len(_DTS)])
        if eager:
            fss.settle()
        yield flows


def _components(fss):
    return list({id(c._comp): c._comp
                 for c in fss._classes.values()}.values())


_GRAPH = dict(n_res=st.integers(2, 6),
              capacities=st.lists(_CAPACITY, min_size=6, max_size=6),
              ops=_ops)
_graphs = given(**_GRAPH)
_graphs_both_modes = given(**_GRAPH, eager=st.booleans())


@_graphs_both_modes
@settings(max_examples=80, **_SLOW)
def test_incremental_rates_match_global_oracle(n_res, capacities, ops,
                                               eager):
    """Scoped rates within the bound of the whole-graph exact oracle's at
    every flush, burst- or timer-driven, through to the drain of all
    finite flows."""
    sim, fss, resources = _build(n_res, capacities)
    for _flows in _apply(sim, fss, resources, ops, eager):
        pass
    sim.run(until=sim.now + 120.0)  # drain: timer-driven flushes only


def _outcome(n_res, capacities, ops, eager):
    sim, fss, resources = _build(n_res, capacities)
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
def test_coalesced_flush_equals_settle_after_every_op(n_res, capacities, ops):
    """Differential: one flush per instant vs a rebalance per op.  The
    intermediate rates of a burst last zero simulated seconds, so they
    may not move a completion timestamp, a byte count (both exact) or an
    integral.  The integrals get one part in 1e12: a burst whose net load
    change is zero makes the eager side accrue one interval as two
    partial sums.  A load the flush failed to refresh would be off by
    whole rates."""
    flows, integrals, rebalances = _outcome(n_res, capacities, ops, False)
    e_flows, e_integrals, e_rebalances = _outcome(n_res, capacities, ops, True)
    assert flows == e_flows
    assert integrals == pytest.approx(e_integrals, rel=1e-12, abs=1e-12)
    assert rebalances <= e_rebalances


@_graphs_both_modes
@settings(max_examples=50, **_SLOW)
def test_maintained_incidence_matches_recount(n_res, capacities, ops, eager):
    """Class membership, ``nlive``, ``capped``, ``nflows`` and the binding
    set survive attach, detach, completion, merge and split."""
    sim, fss, resources = _build(n_res, capacities, _FullyCheckedSystem)
    for flows in _apply(sim, fss, resources, ops, eager):
        live = {}
        for f in flows:
            if f.active:
                live.setdefault((f.path, f.cap), set()).add(f)
        assert {key: cls.members for key, cls in fss._classes.items()} \
            == live
        for res in resources:
            assert list(res._classes) == [
                c for c in fss._classes.values() if res in c.path]
        for comp in _components(fss):
            nlive = {}
            for c in comp.classes:
                for res in c.path:
                    nlive[res] = nlive.get(res, 0) + len(c.members)
            assert comp.nlive == nlive
            assert comp.capped == {c for c in comp.classes
                                   if math.isfinite(c.cap)}
            assert comp.nflows == sum(len(c.members) for c in comp.classes)


@_graphs
@settings(max_examples=50, **_SLOW)
def test_indexed_fill_matches_oracle(n_res, capacities, ops):
    """Per component, between flushes too, the class fill over the
    maintained ``nlive`` and ``capped`` gives every member a rate within
    the bound of the exact oracle's, and saturates the resources the
    exact fill binds unless two exact levels tie inside the bound."""
    sim, fss, resources = _build(n_res, capacities)
    for _flows in _apply(sim, fss, resources, ops):
        for comp in _components(fss):
            rates, _visits, saturated = _full_path_fill(
                comp.classes, comp.nlive, comp.capped)
            flows = [f for c in comp.classes for f in c.members]
            _exact, bounds, exact_saturated, margin = _assert_within_bound(
                {f: rates[f._cls] for f in flows}, flows)
            if margin > 2 * max(bounds.values()) / 3:
                assert saturated == exact_saturated


def _edge_case_graph(sim, fss, x_capacity):
    """Certificate edge cases.

    * ``link`` (50) carries two flows capped at 25: exactly full, slack
      0.0, like a netback whose only flows are capped.
    * ``netback`` (4e7) carries three flows bound elsewhere at 1e7, 1e7
      and one ulp below 2e7: always above a round's level, so it never
      saturates, yet its load rounds to exactly its capacity —
      only the drop-time certificate keeps it in the binding set.
    * ``r`` (100) carries ``g1`` (frozen at 25 by ``a``, shared with
      ``h``) and ``g2`` (capped at 60): 85 of 100, so it leaves the
      binding set — until closing ``h``, an op that touches only ``a``,
      lifts ``g1`` to where ``r`` binds.
    * a ``set_capacity`` on ``r`` while it is outside the binding set.
    """
    link, x = SharedResource("link", 50.0), SharedResource("x", x_capacity)
    a, r = SharedResource("a", 50.0), SharedResource("r", 100.0)
    netback = SharedResource("netback", 4e7)
    for i, capacity in enumerate((1e7, 1e7, math.nextafter(2e7, 0))):
        fss.open([netback, SharedResource(f"nic{i}", capacity)],
                 size=math.inf, name=f"n{i}")
    fss.open([link, x], size=math.inf, cap=25.0, name="c1")
    fss.open([link], size=math.inf, cap=25.0, name="c2")
    h = fss.open([a], size=math.inf, name="h")
    g1 = fss.open([a, r], size=math.inf, name="g1")
    fss.open([r], size=math.inf, cap=60.0, name="g2")
    sim.run(until=sim.now + 1.0)
    return [link, x, a, r, netback], h, g1


def test_certificate_edge_cases_step_by_step():
    sim = Simulator()
    fss = _BindingCheckedSystem(sim)
    (link, _x, a, r, netback), h, g1 = _edge_case_graph(sim, fss, 400.0)
    for full in (link, netback):
        assert full.current_load == full.capacity
        assert full in full._comp.binding
    assert not _slack(netback, netback.current_load, 3)
    assert r.current_load == 85.0 and r not in r._comp.binding
    reruns = fss.fill_reruns
    fss.close(h)  # touches only ``a``; ``r`` starts to bind
    sim.run(until=sim.now + 1.0)
    assert fss.fill_reruns == reruns + 1 and r in r._comp.binding
    assert g1.rate == 50.0 and r.current_load == 100.0
    fss.open([a, r], size=math.inf, cap=10.0, name="g3")
    sim.run(until=sim.now + 1.0)
    reruns = fss.fill_reruns
    fss.set_capacity(r, 400.0)  # slack again: ``r`` drops out ...
    sim.run(until=sim.now + 1.0)
    assert r not in r._comp.binding
    fss.set_capacity(r, 50.0)  # ... and a squeeze outside it refills
    sim.run(until=sim.now + 1.0)
    assert fss.fill_reruns == reruns + 1 and r in r._comp.binding


@given(x_capacity=_CAPACITY,
       order=st.permutations(("close", "setcap", "advance")),
       new_capacity=_CAPACITY,
       eager=st.booleans(), ops=_ops)
@settings(max_examples=60, **_SLOW)
def test_certificate_edge_cases_match_full_path_fill(
        x_capacity, order, new_capacity, eager, ops):
    """The edge cases of :func:`_edge_case_graph` in any order, then any
    op sequence over the same resources: after every flush the rates and
    ``flow_visits`` equal a full-path fill (the checked system)."""
    sim = Simulator()
    fss = _BindingCheckedSystem(sim)
    resources, h, _g1 = _edge_case_graph(sim, fss, x_capacity)
    for step in order:
        if step == "close":
            fss.close(h)
        elif step == "setcap":
            fss.set_capacity(resources[3], new_capacity)
        else:
            sim.run(until=sim.now + 1.0)
    for _flows in _apply(sim, fss, resources, ops, eager):
        pass
    sim.run(until=sim.now + 120.0)


def test_path_crossing_a_resource_twice_is_rejected():
    """``open`` refuses a path that names a resource twice before it
    changes any state: no flow, class or component, and no flush booked."""
    sim = Simulator()
    fss = FairShareSystem(sim)
    r, s = SharedResource("r", 100.0), SharedResource("s", 100.0)
    with pytest.raises(ResourceError, match="crosses a resource twice"):
        fss.open([r, s, r], size=10.0)
    assert fss._seeds is None and not fss._classes and fss._flow_seq == 0
    assert r._comp is None and not r._classes


def test_cross_component_ulp_tie_stays_within_bound():
    """Two disjoint components whose levels, thirds of capacities two ulps
    apart, round one ulp apart.  Filled in separate flushes, each keeps
    its own level — one ulp from a whole-graph float fill, which freezes
    both at the lower one — and both lie within the bound of the exact
    rates (the checked system)."""
    sim = Simulator()
    fss = _OracleCheckedSystem(sim)
    low = SharedResource("low", 100.0)
    high = SharedResource("high", 100.00000000000003)
    assert high.capacity / 3 == math.nextafter(low.capacity / 3, math.inf)
    flows = [fss.open([low], size=math.inf, name=f"low{i}")
             for i in range(3)]
    sim.run(until=1.0)
    flows += [fss.open([high], size=math.inf, name=f"high{i}")
              for i in range(3)]
    sim.run(until=2.0)
    assert [f.rate for f in flows] == ([low.capacity / 3] * 3
                                       + [high.capacity / 3] * 3)


def test_binding_set_survives_merge_and_split():
    """A merge unions two binding sets; a split hands each part its
    share; restricted paths follow."""
    sim = Simulator()
    fss = _BindingCheckedSystem(sim)
    left, right, bridge = (SharedResource(n, 100.0)
                           for n in ("left", "right", "bridge"))
    quiet_l = SharedResource("quiet-l", 400.0)
    quiet_r = SharedResource("quiet-r", 400.0)
    fss.open([left, quiet_l], size=math.inf, name="l")
    fss.open([right, quiet_r], size=math.inf, name="r")
    sim.run(until=1.0)
    assert left._comp is not right._comp
    assert quiet_l not in left._comp.binding  # slack 300 of 400
    spans = [fss.open([left, bridge, right], size=math.inf, cap=cap,
                      name=f"span{cap}") for cap in (None, 25.0, 60.0)]
    sim.run(until=2.0)
    comp = left._comp
    assert comp is right._comp and {left, right} <= comp.binding.keys()
    for span in spans:
        fss.close(span)
    sim.run(until=3.0)
    assert left._comp is not right._comp  # split: 2 of a peak of 5 classes
    for part in (left._comp, right._comp):
        assert part.binding.keys() <= part.resources
    _assert_binding_sound(fss)


def test_one_component_flush_fills_its_binding_counts(monkeypatch):
    """A one-component flush hands :func:`_fill` the component's own
    binding dict, whose counts it reads and leaves as they were."""
    sim = Simulator()
    fss = FairShareSystem(sim)
    a, b = SharedResource("a", 10.0), SharedResource("b", 20.0)
    fss.open([a, b], size=math.inf)
    fss.open([a], size=math.inf)
    seen = []

    def recorded_fill(classes, counts, capped):
        seen.append(counts)
        return _fill(classes, counts, capped)

    monkeypatch.setattr(fairshare, "_fill", recorded_fill)
    fss.settle()
    comp = a._comp
    assert seen and all(counts is comp.binding for counts in seen)
    assert comp.binding == {a: 2}  # b carries 5 of 20: dropped


class _HistorySystem(_OracleCheckedSystem):
    """Records every live flow's rate after every flush."""

    def __init__(self, sim):
        super().__init__(sim)
        self.history = {}

    def _rebalance(self, seeds):
        super()._rebalance(seeds)
        for flow in self.active_flows:
            steps = self.history.setdefault(flow, [])
            if not steps or steps[-1][1] != flow.rate:
                steps.append((self.sim.now, flow.rate))


def _integrate(steps, until):
    """Exact units moved by ``until`` under the step rate history."""
    moved = Fraction(0)
    for (t, rate), (t_next, _r) in zip(steps, steps[1:] + [(until, 0.0)]):
        moved += Fraction(rate) * (Fraction(min(t_next, until)) - Fraction(t))
    return moved


def _exact_end(steps, size):
    """Exact time the step rate history has moved ``size`` units."""
    left = Fraction(size)
    for (t, rate), (t_next, _r) in zip(steps, steps[1:] + [(math.inf, 0.0)]):
        if rate > 0:
            end = Fraction(t) + left / Fraction(rate)
            if t_next == math.inf or end <= Fraction(t_next):
                return end
            left -= Fraction(rate) * (Fraction(t_next) - Fraction(t))
    raise AssertionError("history never finishes the flow")


#: The contract bound stated in the ``repro.sim.fairshare`` docstring:
#: relative to the exact completion time, or to the exact transfer.
_BOUND = 1e-12


@_graphs_both_modes
@settings(max_examples=80, **_SLOW)
def test_completion_times_match_exact_integration(n_res, capacities, ops,
                                                  eager):
    """Differential: every ``end_time`` and ``transferred`` against exact
    rational integration of the flow's own rate history."""
    sim, fss, resources = _build(n_res, capacities, _HistorySystem)
    flows = []
    for flows in _apply(sim, fss, resources, ops, eager):
        pass
    sim.run(until=sim.now + 120.0)
    for f in flows:
        steps = fss.history.get(f, [])
        if f.active or not steps:  # never ran, or never flushed
            assert f.transferred == 0.0 or f.active
            continue
        if f.transferred == f.size:  # completed by the engine
            exact = _exact_end(steps, f.size)
            err = abs(Fraction(f.end_time) - exact) / exact
        else:  # closed early
            exact = _integrate(steps, f.end_time)
            err = abs(Fraction(f.transferred) - exact) / (exact or 1)
        assert err <= _BOUND, (f.name, float(err))


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
    assert flow.transferred == 0.0
    fss.settle()
    assert fss.rebalance_count == rebalances  # flow set never changed
    assert background.rate == rate == 100.0
    sim.run(until=1.0)
    assert flow.done.triggered and flow.done.value is flow


def _live_timers(sim):
    """Live ordinary-band entries: the pending flush is not a timer."""
    return [ev for _t, seq, ev in sim._heap
            if seq < INSTANT_END and not ev._cancelled]


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


def test_a_flush_that_keeps_the_due_head_keeps_its_timer():
    """A flush whose earliest completion is the instant the armed timer
    fires at leaves that timer alone: no cancel, no second queue entry."""
    sim = Simulator()
    fss = FairShareSystem(sim)
    fss.open([SharedResource("a", 100.0)], size=1000.0)  # due at 10
    fss.settle()
    (timer,) = _live_timers(sim)
    sim.run(until=1.0)
    fss.open([SharedResource("b", 100.0)], size=5000.0)  # due at 51
    fss.settle()
    assert fss.rebalance_count == 2
    assert _live_timers(sim) == [timer] and fss.timer_cancellations == 0
    sim.run()
    assert fss.completed_count == 2 and sim.cancelled_pruned == 0


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
