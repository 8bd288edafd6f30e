"""Max-min fair fluid-flow sharing of capacitated resources.

This module is the single contention mechanism of the simulator.  A
:class:`SharedResource` is anything with a capacity in *units per second*:
a physical NIC (bytes/s), a software bridge, a disk, an NFS server, a
physical CPU package (core-seconds/s == cores), or a VM's VCPU allocation.

A :class:`FluidFlow` is a demand of a given *size* that traverses an ordered
*path* of resources — e.g. a network transfer crosses ``(src VM NIC, src
host NIC, dst host NIC, dst VM NIC)``, while a burst of CPU work crosses
``(vm.vcpu, host.cpu)``.  At any instant every active flow receives a rate;
the rates are the *max-min fair allocation* with optional per-flow caps,
computed by progressive filling:

1. all unfrozen flows share one common rate *level* that rises from 0;
2. the level stops at the first constraint — a flow cap, or a resource whose
   capacity is exhausted by its frozen load plus its unfrozen flows at the
   level;
3. the constrained flows freeze at that level; repeat with the rest.

Every change to the flow set or a capacity (``open``/``close``/
``set_capacity``/a completion) advances all flows' progress to *now*,
attaches or detaches the flow and triggers ``done`` on the spot — but only
*records* which resources it touched.  Rates are recomputed, and the next
completion scheduled, once per simulated instant: the kernel calls
:meth:`FairShareSystem.settle` when nothing further is due at ``now``
(:meth:`repro.sim.kernel.Simulator.at_instant_end`).  A completion that
wakes N tasks which each open a flow therefore costs one fill, not N+1.
The skipped intermediate rates would have existed for zero simulated
seconds: they multiply ``dt == 0`` in every integral and the clock cannot
reach a horizon computed from them, so no timestamp, byte count or
busy-time can tell the difference.  What *can* is a reader that looks at
``flow.rate`` or ``resource.utilization`` from inside such an instant;
readers call ``settle()`` first (``active_flows``/``flows_through`` do it
for them), and ``_advance`` refuses to integrate if the clock ever moved
past unsettled rates.  The result is an event-driven fluid simulation
whose cost is independent of transfer sizes.

Incremental engine
------------------
Max-min fairness decomposes over the *connected components* of the
resource/flow graph (two resources are connected when a live flow crosses
both): the fair rates inside one component are a function of that component
alone.  A flow-set change therefore only recomputes the component it
touches.  Components are maintained incrementally as a union-find-style
partition (:class:`_Component`): a new flow eagerly unions the components
its path bridges (small-to-large), while splits are detected lazily — a
union that lost half its flows since its peak is re-derived from the live
adjacency on first touch.  A union may transiently cover several true
components; the fill over a union decomposes exactly into per-component
fills, so scoping never changes a computed rate.  Disjoint components keep
their rates — recomputing them would reproduce the same values bit for
bit.  There is one way to compute rates (``settle`` → ``_scope`` → the
incidence-indexed :func:`_maxmin_rates_scoped`) and one oracle
(:func:`_maxmin_rates`, the plain whole-graph progressive fill):
``tests/sim/test_fairshare_incremental.py`` asserts that every active
flow's rate equals the oracle's after every flush, and that flushing after
every single op instead changes no outcome (DESIGN.md §Performance).

Two things deliberately stay global so that simulated timestamps are
*bit-identical* to a full recomputation:

* progress advancement (``_advance``) walks every active flow whenever
  simulated time has passed — partial advancement would change the
  floating-point stepping of ``remaining`` and with it completion
  timestamps.  Same-timestamp cascades (the common case) cost O(1).
* the completion horizon of an *untouched* flow is a pure function of its
  unchanged ``remaining``/``rate``, so cached horizons in a lazy-deletion
  heap are exact.

Resources keep a time-integrated load *fraction* so monitors can report
utilization; capacity changes do not rescale already-integrated history.
The engine's cost counters (``rebalance_count``, ``flow_visits``,
``timer_cancellations``, ``max_component_flows``, ``completed_count``)
are plain attributes of :class:`FairShareSystem`; the benchmark census
and ``tests/platform/test_engine_counters.py`` read them there.
"""

from __future__ import annotations

import heapq
import math
from typing import Iterable, Optional, Sequence

from repro.errors import ResourceError, SimulationError
from repro.sim.kernel import Event, Simulator

_EPS = 1e-12
#: Smallest scheduling horizon (seconds); see FairShareSystem._advance.
_MIN_DT = 1e-9


class SharedResource:
    """A capacity shared max-min fairly among the flows crossing it."""

    __slots__ = ("name", "capacity", "nominal", "_flows",
                 "current_load", "_busy_integral", "_moved_integral",
                 "_last_change", "_comp")

    def __init__(self, name: str, capacity: float):
        if capacity <= 0:
            raise ResourceError(f"resource {name!r} needs capacity > 0, "
                                f"got {capacity}")
        self.name = name
        self.capacity = float(capacity)
        #: Design capacity.  ``set_capacity`` (fault injection) moves only
        #: ``capacity``; rate caps derived from device speed must use the
        #: nominal value so a transient degradation is never frozen into a
        #: flow's lifetime cap.
        self.nominal = float(capacity)
        self._flows: set["FluidFlow"] = set()
        #: Union-find component this resource currently belongs to (None
        #: while no live flow has ever crossed it, or after a lazy split
        #: found it isolated).
        self._comp: Optional["_Component"] = None
        self.current_load = 0.0
        self._busy_integral = 0.0
        self._moved_integral = 0.0
        self._last_change = 0.0

    @property
    def utilization(self) -> float:
        """Instantaneous load fraction in [0, 1]."""
        return min(1.0, self.current_load / self.capacity)

    @property
    def n_flows(self) -> int:
        return len(self._flows)

    def _accrue(self, now: float) -> None:
        """Fold the elapsed load *fraction* into the busy integral.

        Integrating the fraction (not the absolute load) makes history
        immune to later capacity changes: a chaos ``disk.slow`` fault must
        not retroactively rescale utilization that was accumulated at the
        old capacity.
        """
        dt = now - self._last_change
        self._busy_integral += self.current_load / self.capacity * dt
        self._moved_integral += self.current_load * dt
        self._last_change = now

    def _set_load(self, load: float, now: float) -> None:
        # Accrue only when the value actually changes: busy_time then
        # depends solely on the load *trajectory*, not on how often the
        # engine happened to re-assert an unchanged load (which depends
        # on how wide a rebalance's scope happened to be).
        if load != self.current_load:
            self._accrue(now)
            self.current_load = load

    def busy_time(self, now: float) -> float:
        """Integral of the load fraction up to ``now`` (resource-seconds)."""
        return (self._busy_integral
                + self.current_load / self.capacity
                * (now - self._last_change))

    def moved_through(self, now: float) -> float:
        """Units carried through this resource up to ``now`` — the
        interface byte counter a real NIC/device exposes.  Unlike
        :meth:`busy_time` this is in absolute units, so it *is* sensitive
        to capacity changes: the link-health detector compares its rate
        of change against the nominal capacity."""
        return (self._moved_integral
                + self.current_load * (now - self._last_change))

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<SharedResource {self.name} cap={self.capacity:g} "
                f"load={self.current_load:g}>")


class FluidFlow:
    """A demand of ``size`` units crossing a path of shared resources."""

    __slots__ = ("name", "path", "size", "remaining", "rate", "cap",
                 "done", "start_time", "end_time", "_moved",
                 "_seq", "_horizon", "_upath", "_comp")

    def __init__(self, name: str, path: Sequence[SharedResource], size: float,
                 cap: Optional[float], done: Event, start_time: float):
        self.name = name
        self.path = tuple(path)
        self.size = float(size)
        self.remaining = float(size)
        self.rate = 0.0
        self.cap = float(cap) if cap is not None else math.inf
        self.done = done
        self.start_time = start_time
        self.end_time: Optional[float] = None
        self._moved = 0.0
        #: Monotone id: deterministic tie-break in the horizon heap.
        self._seq = 0
        #: Cached completion horizon (remaining / rate) as of the flow's
        #: last rate change or the last global advance; ``inf`` when the
        #: flow cannot complete on its own.
        self._horizon = math.inf
        #: Union-find component while the flow is live.
        self._comp: Optional["_Component"] = None
        #: Path with duplicates removed (unfrozen-counter bookkeeping);
        #: load accumulation still charges duplicated path entries twice.
        path = self.path
        if len(path) < 2:
            self._upath = path
        elif len(path) == 2:  # the hot compute/disk case
            self._upath = path if path[0] is not path[1] else path[:1]
        else:
            self._upath = tuple(dict.fromkeys(path))

    @property
    def transferred(self) -> float:
        """Units moved so far (works for open-ended flows too)."""
        return self._moved

    @property
    def active(self) -> bool:
        return self.end_time is None

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<FluidFlow {self.name} remaining={self.remaining:g} "
                f"rate={self.rate:g}>")


class _Component:
    """A never-split union of live connected components.

    Unions happen eagerly when a new flow bridges components; splits are
    detected lazily — when a rebalance touches a component whose live flow
    count has halved since its peak, the partition is re-derived from the
    live adjacency (amortized O(1) per flow removal).  A component may
    therefore transiently cover *several* true connected components; the
    progressive fill over such a union decomposes exactly into the
    per-component fills, so the lazy split cannot change any computed
    rate, only how much work a rebalance does.
    """

    __slots__ = ("flows", "resources", "peak", "nlive", "capped")

    def __init__(self) -> None:
        self.flows: set[FluidFlow] = set()
        self.resources: set[SharedResource] = set()
        #: Largest live flow count seen since the last (re)derivation;
        #: the lazy-split trigger compares against it.
        self.peak = 0
        #: Live flow count per resource (``flow._upath`` incidence),
        #: maintained at attach/detach so a progressive fill seeds its
        #: unfrozen counters with one dict copy instead of re-scanning
        #: every scoped flow's path — see :func:`_maxmin_rates_scoped`.
        self.nlive: dict[SharedResource, int] = {}
        #: Live flows with a finite rate cap; the fill's cap heap is built
        #: from this instead of inspecting every flow.
        self.capped: set[FluidFlow] = set()


class FairShareSystem:
    """Manages all fluid flows of one simulation and their fair rates."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._flows: set[FluidFlow] = set()
        self._last_update = 0.0
        #: The armed completion timer (a ``call_in`` handle), None once fired.
        self._timer = None
        self.completed_count = 0
        #: Lazy-deletion heap of (horizon, flow seq, flow); an entry is
        #: valid while the flow is active and its cached horizon matches.
        self._horizon_heap: list = []
        self._flow_seq = 0
        #: Resources touched since the last flush, or ``None`` when rates
        #: are settled; see :meth:`_touch` / :meth:`settle`.
        self._seeds: Optional[list[SharedResource]] = None
        # -- engine cost counters (benchmark census, test_engine_counters) --
        self.rebalance_count = 0
        #: Flow inspections performed by the scoped progressive fills.
        self.flow_visits = 0
        self.timer_cancellations = 0
        self.max_component_flows = 0
        #: Optional flow-completion sink (anything with ``append``); every
        #: flow that leaves the system — completed, closed, interrupted —
        #: is handed over exactly once, after its rate/end_time are final.
        #: The observatory's attribution engine installs a
        #: :class:`repro.observatory.attribution.FlowLog` here via the
        #: telemetry facade; the engine itself stays telemetry-agnostic.
        self.flow_log = None

    # -- public API ------------------------------------------------------
    def open(self, path: Sequence[SharedResource], size: float,
             cap: Optional[float] = None, name: str = "flow") -> FluidFlow:
        """Start a flow; ``flow.done`` triggers with the flow on completion.

        ``size`` may be ``math.inf`` for an open-ended background load that
        is ended with :meth:`close`.
        """
        if size < 0:
            raise ResourceError(f"flow size must be >= 0, got {size}")
        if not path:
            raise ResourceError("flow path must contain at least one resource")
        if cap is not None and cap <= 0:
            raise ResourceError(f"flow cap must be > 0, got {cap}")
        flow = FluidFlow(name, path, size, cap, self.sim.event(),
                         self.sim.now)
        self._flow_seq += 1
        flow._seq = self._flow_seq
        self._advance()
        if size <= _EPS and math.isfinite(size):
            # Zero-size fast path: the flow set is unchanged, so no rates
            # move — succeed the event and touch nothing.
            flow.remaining = 0.0
            flow.end_time = self.sim.now
            flow.done.succeed(flow)
            return flow
        self._flows.add(flow)
        for res in flow.path:
            res._flows.add(flow)
        self._attach_component(flow)
        self._touch(flow.path)
        return flow

    def close(self, flow: FluidFlow) -> float:
        """End an open-ended (or any active) flow early.

        Returns the amount transferred.  The flow's ``done`` event triggers
        with the flow.
        """
        if flow not in self._flows:
            raise ResourceError(f"flow {flow.name!r} is not active")
        self._advance()
        self._detach(flow)
        flow.done.succeed(flow)
        self._touch(flow.path)
        return flow.transferred

    def set_capacity(self, resource: SharedResource, capacity: float) -> None:
        """Change a resource's capacity mid-simulation (fault injection).

        All in-flight progress is advanced to *now* at the old rates first;
        this instant's flush recomputes rates under the new capacity — so a
        network degradation only affects bytes still to be moved.  The
        busy-time integral is flushed at the old capacity first, so
        utilization history is not rescaled.
        """
        if capacity <= 0:
            raise ResourceError(
                f"resource {resource.name!r} needs capacity > 0, "
                f"got {capacity}")
        self._advance()
        resource._accrue(self.sim.now)
        resource.capacity = float(capacity)
        self._touch((resource,))

    def settle(self) -> None:
        """Bring every rate, horizon and load up to date (idempotent).

        The kernel calls this at the end of each instant in which the flow
        set or a capacity changed; anything that *reads* ``flow.rate``,
        ``current_load`` or ``utilization`` from inside such an instant
        calls it first.  ``busy_time``/``moved_through``/``transferred``
        need no settle: the pre-flush load is their integrand up to ``now``.
        """
        seeds = self._seeds
        if seeds is not None:
            self._seeds = None
            self._rebalance(seeds)

    @property
    def active_flows(self) -> frozenset[FluidFlow]:
        """The live flows, with settled rates."""
        self.settle()
        return frozenset(self._flows)

    def flows_through(self, resource: SharedResource) -> frozenset[FluidFlow]:
        self.settle()
        return frozenset(resource._flows)

    # -- internals ---------------------------------------------------------
    def _touch(self, resources: Iterable[SharedResource] = ()) -> None:
        """Record resources whose flow set or capacity just changed; the
        first touch of an instant books its one :meth:`settle` with the
        kernel (module docstring: why the intermediates are unobservable).
        """
        if self._seeds is None:
            self._seeds = []
            self.sim.at_instant_end(self.settle)
        self._seeds.extend(resources)

    def _detach(self, flow: FluidFlow) -> None:
        comp = flow._comp
        if comp is not None:
            comp.flows.discard(flow)
            comp.capped.discard(flow)
            nlive = comp.nlive
            for res in flow._upath:
                n = nlive.get(res, 0) - 1
                if n > 0:
                    nlive[res] = n
                else:
                    nlive.pop(res, None)
            flow._comp = None
        self._flows.discard(flow)
        now = self.sim.now
        for res in flow.path:
            res._flows.discard(flow)
            if not res._flows:
                res._set_load(0.0, now)
        flow.rate = 0.0
        flow.end_time = now
        if self.flow_log is not None:
            self.flow_log.append(flow)

    def _advance(self) -> None:
        """Progress every active flow from the last update time to now.

        Flows that complete are detached, their ``done`` triggered and
        their paths touched for this instant's flush.  Advancement is
        deliberately global: partial (per-component) advancement would
        change the floating-point stepping of ``remaining`` and therefore
        completion timestamps.  When no simulated time has passed — the
        overwhelmingly common cascade case — this is O(1).
        """
        now = self.sim.now
        dt = now - self._last_update
        if dt < 0:  # pragma: no cover - defensive
            raise SimulationError("fair-share clock went backwards")
        if dt > 0:
            if self._seeds is not None:
                raise SimulationError(
                    f"the clock moved to t={now} but the fair-share rates "
                    f"touched at t={self._last_update} were never settled")
            finished: list[FluidFlow] = []
            # Time moved, so every surviving horizon shifted; the fresh
            # horizons are computed in the same pass that steps progress.
            # Heap layout depends on entry order, but pops follow the
            # (horizon, seq) total order, so the layout is not observable.
            entries: list = []
            push = entries.append
            inf = math.inf
            for flow in self._flows:
                rate = flow.rate
                if rate > 0:
                    flow._moved += rate * dt
                    if math.isfinite(flow.remaining):
                        flow.remaining = max(0.0, flow.remaining - rate * dt)
                        # A flow is done when the residue is negligible
                        # relative to its size *or* would take less than a
                        # nanosecond to drain — the latter absorbs float
                        # subtraction residues that are above the size
                        # epsilon but below the clock's resolution.
                        if (flow.remaining <= _EPS * max(1.0, flow.size)
                                or flow.remaining <= rate * _MIN_DT):
                            flow.remaining = 0.0
                            flow._moved = flow.size
                            finished.append(flow)
                        elif rate > _EPS:
                            horizon = flow.remaining / rate
                            flow._horizon = horizon
                            push((horizon, flow._seq, flow))
                        else:
                            flow._horizon = inf
                    else:
                        flow._horizon = inf
                else:
                    flow._horizon = inf
            for flow in finished:
                self._detach(flow)
                self.completed_count += 1
                flow.done.succeed(flow)
                self._touch(flow.path)
            heapq.heapify(entries)
            self._horizon_heap = entries
        self._last_update = now

    def _attach_component(self, flow: FluidFlow) -> None:
        """Union the components the new flow's path bridges (small-to-large).

        Merging the smaller union into the larger bounds the total merge
        work at O(n log n) over a run; the split side of the partition is
        amortized by :meth:`_split_component`'s halving trigger.
        """
        comp: Optional[_Component] = None
        for res in flow._upath:
            other = res._comp
            if other is None or other is comp:
                continue
            if comp is None:
                comp = other
                continue
            if len(other.flows) > len(comp.flows):
                comp, other = other, comp
            for r in other.resources:
                r._comp = comp
            comp.resources.update(other.resources)
            for f in other.flows:
                f._comp = comp
            comp.flows.update(other.flows)
            # Components are resource-disjoint, so the incidence dicts
            # merge without collisions.
            comp.nlive.update(other.nlive)
            comp.capped.update(other.capped)
        if comp is None:
            comp = _Component()
        comp.flows.add(flow)
        flow._comp = comp
        nlive = comp.nlive
        for res in flow._upath:
            if res._comp is not comp:
                res._comp = comp
                comp.resources.add(res)
            nlive[res] = nlive.get(res, 0) + 1
        if math.isfinite(flow.cap):
            comp.capped.add(flow)
        n = len(comp.flows)
        if n > comp.peak:
            comp.peak = n

    def _split_component(self, comp: _Component) -> None:
        """Re-derive true components from a shrunken union (lazy split).

        One breadth-first walk over the union's live adjacency.  Isolated
        resources (no live flows left) drop out of the partition entirely.
        """
        for res in comp.resources:
            if res._comp is comp:
                res._comp = None
        pending = comp.flows
        for flow in pending:
            flow._comp = None
        while pending:
            part = _Component()
            first = pending.pop()
            first._comp = part
            part.flows.add(first)
            stack = [first]
            while stack:
                flow = stack.pop()
                for res in flow._upath:
                    if res._comp is part:
                        continue
                    res._comp = part
                    part.resources.add(res)
                    for nxt in res._flows:
                        if nxt._comp is not part:
                            nxt._comp = part
                            part.flows.add(nxt)
                            pending.discard(nxt)
                            stack.append(nxt)
            part.peak = len(part.flows)
            nlive = part.nlive
            capped = part.capped
            for f in part.flows:
                for r in f._upath:
                    nlive[r] = nlive.get(r, 0) + 1
                if math.isfinite(f.cap):
                    capped.add(f)

    def _scope(self, seeds: list[SharedResource]
               ) -> tuple[set[FluidFlow], dict[SharedResource, int],
                          set[FluidFlow]]:
        """Resolve a rebalance scope from the component partition.

        Touched unions that lost half their flows since their peak are
        split exactly first.  Then the scope is the union of the touched
        components' flows, per-resource live-flow counts and capped flows
        (seeds outside the partition carry no live flows).  The
        single-component case — the overwhelmingly common one — aliases
        the component's own sets instead of copying; callers only read
        them.
        """
        while True:
            comps: list[_Component] = []
            seen: set[int] = set()
            for res in seeds:
                comp = res._comp
                if comp is not None and id(comp) not in seen:
                    seen.add(id(comp))
                    comps.append(comp)
            stale = [c for c in comps if 2 * len(c.flows) < c.peak]
            if not stale:
                break
            # A split drains its input, so re-derive; fresh parts sit at
            # their peak and the second pass always breaks.
            for comp in stale:
                self._split_component(comp)
        if len(comps) == 1:
            comp = comps[0]
            return comp.flows, comp.nlive, comp.capped
        flows: set[FluidFlow] = set()
        nlive: dict[SharedResource, int] = {}
        capped: set[FluidFlow] = set()
        for comp in comps:
            flows |= comp.flows
            nlive.update(comp.nlive)
            capped |= comp.capped
        return flows, nlive, capped

    def _rebalance(self, seeds: list[SharedResource]) -> None:
        """Recompute fair rates for the touched component(s) and reschedule.

        ``seeds`` are the resources whose flow set (or capacity) changed
        this instant; the fill covers their full connected components.
        Rates outside the scope are untouched — recomputing them would
        yield the same values, which the tests assert against the oracle.
        Only what changed is written back: a flow whose rate the fill
        reproduced keeps its horizon-heap entry (``remaining`` only moves
        in ``_advance``, which rebuilds the heap), and a load is re-summed
        only for seeds and for resources on a changed flow's path — any
        other sum would reproduce ``current_load`` bit for bit.
        """
        now = self.sim.now
        self.rebalance_count += 1
        flows, nlive, capped = self._scope(seeds)
        if flows:
            n_flows = len(flows)
            if n_flows > self.max_component_flows:
                self.max_component_flows = n_flows
            rates, visits = _maxmin_rates_scoped(flows, nlive, capped)
            self.flow_visits += visits
            heap = self._horizon_heap
            reload = set(seeds)
            for flow in flows:
                rate = rates[flow]
                if rate == flow.rate:
                    continue
                flow.rate = rate
                reload.update(flow._upath)
                if rate > _EPS and math.isfinite(flow.remaining):
                    horizon = flow.remaining / rate
                    flow._horizon = horizon
                    heapq.heappush(heap, (horizon, flow._seq, flow))
                else:
                    flow._horizon = math.inf
            for res in reload:
                res._set_load(sum(f.rate for f in res._flows), now)
        self._schedule_next()

    def _schedule_next(self) -> None:
        timer = self._timer
        if timer is not None:  # armed and not yet fired: supersede it
            self._timer = None
            timer.cancel()
            self.timer_cancellations += 1
        heap = self._horizon_heap
        while heap:
            horizon, _seq, flow = heap[0]
            if flow.end_time is None and flow._horizon == horizon:
                break
            heapq.heappop(heap)
        if not heap:
            return
        self._timer = self.sim.call_in(max(heap[0][0], _MIN_DT),
                                       self._on_timer)

    def _on_timer(self) -> None:
        self._timer = None
        self._advance()
        self._touch()  # even with nothing completed, re-arm the timer


def _maxmin_rates(flows: Iterable[FluidFlow]) -> dict[FluidFlow, float]:
    """Progressive-filling max-min fair allocation with per-flow caps.

    Reference implementation kept as the oracle for the incremental
    engine's property tests: :func:`_maxmin_rates_scoped` must agree with
    it exactly on every connected component.
    """
    unfrozen = set(flows)
    rates: dict[FluidFlow, float] = {f: 0.0 for f in unfrozen}
    if not unfrozen:
        return rates
    frozen_load: dict[SharedResource, float] = {}
    for flow in unfrozen:
        for res in flow.path:
            frozen_load.setdefault(res, 0.0)
    level = 0.0
    while unfrozen:
        # How high can the common level rise before a constraint binds?
        sat_levels: dict[SharedResource, float] = {}
        for res, loaded in frozen_load.items():
            n = sum(1 for f in res._flows if f in unfrozen)
            if n:
                sat_levels[res] = (res.capacity - loaded) / n
        res_level = min(sat_levels.values(), default=math.inf)
        min_cap = min((f.cap for f in unfrozen), default=math.inf)
        next_level = min(res_level, min_cap)
        if not math.isfinite(next_level):  # pragma: no cover - defensive
            raise ResourceError("unbounded fair-share level")
        level = max(level, next_level)
        newly_frozen: set[FluidFlow] = set()
        if min_cap <= next_level + _EPS:
            newly_frozen.update(f for f in unfrozen if f.cap <= level + _EPS)
        for res, sat in sat_levels.items():
            if sat <= next_level + _EPS:  # this resource saturates here
                newly_frozen.update(f for f in res._flows if f in unfrozen)
        if not newly_frozen:  # pragma: no cover - numerical safety net
            newly_frozen = set(unfrozen)
        for flow in newly_frozen:
            rates[flow] = min(level, flow.cap)
            unfrozen.discard(flow)
            for res in flow.path:
                frozen_load[res] += rates[flow]
    return rates


def _maxmin_rates_scoped(flows: set[FluidFlow],
                         nlive: dict[SharedResource, int],
                         capped: set[FluidFlow],
                         ) -> tuple[dict[FluidFlow, float], int]:
    """Progressive filling over one (set of) connected component(s).

    Identical arithmetic to :func:`_maxmin_rates` — every saturation level
    is ``(capacity - frozen) / unfrozen`` over the same operands, and the
    binding level of each round is the same minimum — but the per-round
    work is indexed instead of scanned:

    * per-resource unfrozen-flow *counters* replace the oracle's per-round
      rescan of every ``res._flows`` set;
    * saturation levels are recomputed only for resources a freeze just
      touched (unchanged operands reproduce the cached value bit for bit);
    * the minimum flow cap comes from a lazy-deletion heap rather than a
      scan of all unfrozen flows.

    ``nlive`` and ``capped`` are the scope's maintained incidence counts
    and capped-flow set (:class:`_Component`), so the fill's own init is
    one dict copy — no per-flow scan at all, which at the 1,000-VM rung
    was ~40% of all flow inspections.

    Returns ``(rates, flow_visits)`` where ``flow_visits`` counts flow
    inspections (the engine's cost metric).
    """
    unfrozen = set(flows)
    rates: dict[FluidFlow, float] = {}
    visits = 0
    n_unfrozen = dict(nlive)
    frozen_load = {res: 0.0 for res in n_unfrozen}
    cap_heap = [(f.cap, f._seq, f) for f in capped]
    heapq.heapify(cap_heap)
    sat_levels: dict[SharedResource, float] = {
        res: (res.capacity - frozen_load[res]) / n
        for res, n in n_unfrozen.items()}
    level = 0.0
    while unfrozen:
        while cap_heap and cap_heap[0][2] not in unfrozen:
            heapq.heappop(cap_heap)
        res_level = min(sat_levels.values(), default=math.inf)
        min_cap = cap_heap[0][0] if cap_heap else math.inf
        next_level = min(res_level, min_cap)
        if not math.isfinite(next_level):  # pragma: no cover - defensive
            raise ResourceError("unbounded fair-share level")
        level = max(level, next_level)
        newly_frozen: set[FluidFlow] = set()
        if min_cap <= next_level + _EPS:
            # Everything with cap <= level + _EPS, exactly the oracle's
            # freeze set: the heap orders finite caps, so pop until above
            # the bound (stale frozen entries are skipped).
            cap_bound = level + _EPS
            while cap_heap and cap_heap[0][0] <= cap_bound:
                _cap, _seq, cf = heapq.heappop(cap_heap)
                if cf in unfrozen:
                    newly_frozen.add(cf)
                    visits += 1
        sat_bound = next_level + _EPS
        for res, sat in sat_levels.items():
            if sat <= sat_bound:  # this resource saturates here
                visits += len(res._flows)
                newly_frozen.update(f for f in res._flows if f in unfrozen)
        if not newly_frozen:  # pragma: no cover - numerical safety net
            newly_frozen = set(unfrozen)
        dirty: set[SharedResource] = set()
        for flow in newly_frozen:
            rate = min(level, flow.cap)
            rates[flow] = rate
            unfrozen.discard(flow)
            for res in flow.path:
                frozen_load[res] += rate
            for res in flow._upath:
                n_unfrozen[res] -= 1
                dirty.add(res)
        for res in dirty:
            n = n_unfrozen[res]
            if n:
                sat_levels[res] = (res.capacity - frozen_load[res]) / n
            else:
                del sat_levels[res]
    return rates, visits
