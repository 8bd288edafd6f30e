"""Max-min fair fluid-flow sharing of capacitated resources.

The simulator's one contention mechanism.  A :class:`SharedResource` has a
capacity in units per second (a NIC, a bridge, a disk, the NFS server, a
CPU package, a VM's VCPUs); a :class:`FluidFlow` is a demand of *size*
units along a *path* of resources, e.g. ``(vm NIC, host NIC, host NIC, vm
NIC)`` or ``(vm.vcpu, host.cpu)``; a path crosses each resource once.
Every active flow gets its max-min fair rate with optional per-flow caps,
by progressive filling: unfrozen flows share a level rising from 0 until a
cap or a resource (frozen load plus its unfrozen flows at the level)
binds; those freeze; repeat.

**Flow classes.**  Max-min fairness is symmetric, so live flows with the
same ``(path, cap)`` get the same rate: they form one :class:`_FlowClass`
with multiplicity ``n``, and the component partition, the fill
(:func:`_fill`), write-back, load sums and completion scheduling all run
over classes.  A class has one clock ``v`` (what each member moved since
the class was created), folded forward only when its rate changes or a
member completes.  A member that joined at ``v0`` has moved ``v - v0`` and
completes when ``v`` reaches ``v0 + size`` (or is within ``_MIN_DT``
seconds of service of it); members wait in a per-class heap by target and
the engine heap holds one due time per class, so time passing costs
nothing per flow.  Same-instant completions fire in (due, class seq,
target, flow seq) order.  A class dies with its last member, so its clock
restarts from 0 each time it comes back.

**Components and flushes.**  Rates decompose over connected components,
kept as a union-find partition (:class:`_Component`) that unions eagerly
and splits lazily.  ``open``/``close``/``set_capacity``/completions act on
the spot but only *record* the resources they touch; an instant's first
touch queues one :meth:`FairShareSystem.settle` as a kernel end-of-instant
entry (:meth:`repro.sim.kernel.Simulator.at_instant_end`), one ``step()``
after the instant's ordinary entries, to fill the touched components and
re-arm the one timer.  Skipped intermediate rates would have held for
zero seconds; in-instant readers of ``flow.rate`` or
``utilization`` call ``settle()`` first, and time cannot pass unsettled.

**Binding sets.**  Few resources of a component ever saturate (about 8 of
the 87 an average ``ladder500`` fill would walk).  Each component keeps a
binding set ``B``, the only resources :func:`_fill` walks, and each class
its path restricted to ``B``.  Every other resource holds a *slack
certificate* (:func:`_slack`): with ``n`` live flows, capacity ``c`` and
load ``l`` (the insertion-ordered sum the flush re-sums), ``c - l > n *
k * 2**-52 * c``.  Levels only rise and every class freezes at its
round's level (*Caps*), so flows unfrozen at round ``i`` end at or above
its level ``L``: the frozen load ``F`` and unfrozen count ``u <= n``
satisfy ``F + u * L <= l``, and the saturation level exceeds ``L`` by
``(c - l) / u`` before rounding.  Each rounding costs at most half an ulp
of ``c`` (no operand exceeds it): a product and a sum per round freezing
flows on it in ``F``, per class in ``l`` (at most ``2n`` each), and two
in the subtraction and division — at most ``4n + 2 <= 6n``, so ``k = 3``
suffices and ``k = 16`` leaves headroom.  A certified resource's
saturation level therefore stays above every round's level, so it never
saturates: the restricted fill makes the full fill's decisions round for
round.  A certificate holds until the resource's load, capacity or flow
count moves, which only a seed or a changed class's path can do.  A flush
sums the loads of these *reloaded* resources once, on the tentative rates,
binds the unbound ones that fail and refills; after write-back it drops
the bound ones that neither saturated nor fail.  One outside the reload
keeps the load it saturated (so failed: a certified resource never
saturates) or failed with, so ``B`` ends as what saturated plus what still
fails.  ``B`` maps each resource to its live-flow count, kept wherever
``nlive`` is.  Merges union ``B``, splits share it out, a resource joins
its component bound (so a new component starts fully bound), and a class
no bound resource could freeze (uncapped, with an empty restricted path)
binds its path.

**Caps.**  A round's level is the larger of the previous one and the
lowest saturation level or cap.  It freezes every cap up to the level and
every resource at the lowest, so the one that set it always freezes; a
cap left unfrozen exceeds the level, so the next level is at most it.
Every class a round freezes gets the level, never above its cap.

**Contract** (``tests/sim/test_fairshare_incremental.py``, against an
exact progressive fill in rationals).  After every flush each rate is
within ``β = 3 * D`` of its exact max-min rate: for a flow the exact fill
freezes at round ``j``, ``D`` is the largest ``δ = (Φ + 2 * (m + 1) *
2**-52 * c) / u`` over rounds ``i <= j`` and resources unfrozen at ``i``
(capacity ``c``, ``m`` flows, ``u`` of them unfrozen at ``i``, ``Φ`` the
summed ``β`` of the frozen ones).  By induction: with the flows so far frozen as in the exact
fill, each within its ``β``, a frozen load is off by ``Φ`` plus two
half-ulps of ``c`` per add (at most ``m``), a saturation level by ``δ``
after the subtraction and division (the factor 2 covers the bounds' own
rounding), and the round's level by ``D`` — or, where rounding dipped the
lowest below the previous level, by as much as that level was; a cap
round is exact.  A resource or cap within ``2 * D`` of the round's exact
level (a *near-tie*) may freeze with it, off by the gap plus ``D``, inside
``β``; elsewhere each round saturates exactly what the exact fill binds.
At capacities up to 1e3 the tests see ``β`` of 3e-15 to 4e-10 and errors
under 1.4% of it.
The fill over the binding sets equals the fill over every resource bit
for bit, in rates and visits.
Completion times and ``transferred`` equal exact rational integration of
each flow's rate history within ``1e-12`` relative: the residue is a few
ulps of the class clock — at most 5.1e-16 on completion times and
4.5e-15 on transfers over 20,000 generated op sequences, 1.1e-13 for a
hand-built short member on a long-lived clock.  Settling after every op
instead of once per instant moves no timestamp or transfer.  Resources
integrate their load *fraction*, so capacity changes never rescale
history.  The cost counters (``rebalance_count``, ``flow_visits`` =
class inspections by accepted fills, ``fill_reruns``,
``timer_cancellations``, ``max_component_flows``, ``completed_count``)
are plain attributes of :class:`FairShareSystem`.
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable, Iterable, Optional, Sequence

from repro.errors import ResourceError, SimulationError
from repro.sim.kernel import Event, Simulator

#: A size or rate at most this is zero; scaled by a member's size (at
#: least 1), the distance from its target that counts as complete.
_EPS = 1e-12
#: The certificate's rounding allowance per flow, as a fraction of
#: capacity: ``k = 16`` machine epsilons (derived in the module docstring).
_ULPS = 16 * 2.0 ** -52
#: Smallest scheduling horizon (seconds); also the completion slack.
_MIN_DT = 1e-9
_INF = math.inf


class SharedResource:
    """A capacity shared max-min fairly among the flows crossing it."""

    __slots__ = ("name", "capacity", "nominal", "_classes",
                 "current_load", "_busy_integral", "_moved_integral",
                 "_last_change", "_comp")

    def __init__(self, name: str, capacity: float):
        if not 0 < capacity < math.inf:
            raise ResourceError(f"resource {name!r} needs a finite "
                                f"capacity > 0, got {capacity}")
        self.name = name
        self.capacity = float(capacity)
        #: Design capacity.  ``set_capacity`` (fault injection) moves only
        #: ``capacity``; caps derived from device speed use this, so a
        #: transient degradation is never frozen into a flow's cap.
        self.nominal = float(capacity)
        #: Live classes crossing this resource, insertion-ordered (so the
        #: load sum is deterministic).
        self._classes: dict["_FlowClass", None] = {}
        #: Union-find component (None until a class crosses it, or after
        #: a lazy split found it isolated).
        self._comp: Optional["_Component"] = None
        self.current_load = 0.0
        self._busy_integral = 0.0
        self._moved_integral = 0.0
        self._last_change = 0.0

    @property
    def utilization(self) -> float:
        """Instantaneous load fraction in [0, 1]."""
        return min(1.0, self.current_load / self.capacity)

    def _accrue(self, now: float) -> None:
        """Fold the elapsed load *fraction* (not the absolute load) into
        the busy integral, so a later capacity change — a chaos
        ``disk.slow`` fault — cannot rescale history."""
        dt = now - self._last_change
        self._busy_integral += self.current_load / self.capacity * dt
        self._moved_integral += self.current_load * dt
        self._last_change = now

    def _set_load(self, load: float, now: float) -> None:
        # Accrue only on a real change: busy_time then depends on the load
        # trajectory, not on how often an unchanged load was re-asserted.
        if load != self.current_load:
            self._accrue(now)
            self.current_load = load

    def busy_time(self, now: float) -> float:
        """Integral of the load fraction up to ``now`` (resource-seconds)."""
        return (self._busy_integral
                + self.current_load / self.capacity
                * (now - self._last_change))

    def moved_through(self, now: float) -> float:
        """Units carried up to ``now`` — the interface byte counter of a
        real device, in absolute units (so capacity-sensitive: the
        link-health detector compares its rate with ``nominal``)."""
        return (self._moved_integral
                + self.current_load * (now - self._last_change))

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<SharedResource {self.name} cap={self.capacity:g} "
                f"load={self.current_load:g}>")


class FluidFlow:
    """A demand of ``size`` units crossing a path of shared resources."""

    __slots__ = ("name", "path", "size", "cap", "done", "start_time",
                 "end_time", "_seq", "_cls", "_v0", "_moved")

    def __init__(self, name: str, path: Sequence[SharedResource], size: float,
                 cap: Optional[float], done: Event, start_time: float):
        self.name = name
        self.path = tuple(path)
        self.size = float(size)
        self.cap = float(cap) if cap is not None else _INF
        self.done = done
        self.start_time = start_time
        self.end_time: Optional[float] = None
        self._seq = 0  # monotone: tie-break among same-target members
        #: The class while live; its clock when the flow joined; the units
        #: moved, final once the flow has ended.
        self._cls: Optional["_FlowClass"] = None
        self._v0 = 0.0
        self._moved = 0.0

    @property
    def rate(self) -> float:
        cls = self._cls
        return cls.rate if cls is not None else 0.0

    @property
    def transferred(self) -> float:
        """Units moved so far (works for open-ended flows too)."""
        cls = self._cls
        if cls is None:
            return self._moved
        return cls.progress(cls.sim.now) - self._v0

    @property
    def active(self) -> bool:
        return self.end_time is None

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<FluidFlow {self.name} moved={self.transferred:g} "
                f"rate={self.rate:g}>")


class _FlowClass:
    """The live flows of one ``(path, cap)``: one rate, one clock."""

    __slots__ = ("path", "bpath", "cap", "seq", "sim", "members", "n",
                 "heap", "rate", "v", "t", "undo", "due", "_comp")

    def __init__(self, path: tuple, cap: float, seq: int, sim: Simulator):
        self.path = path
        #: ``path`` restricted to the component's binding set: what
        #: :func:`_fill` walks (see :meth:`restrict`).
        self.bpath = ()
        self.cap = cap
        self.seq = seq
        self.sim = sim
        self.members: set[FluidFlow] = set()
        self.n = 0  # live members: what the class weighs in loads and fills
        #: (target, flow seq, flow) of finite members; entries of members
        #: that closed early are dropped when they surface.
        self.heap: list = []
        self.rate = 0.0
        #: Clock ``v`` as of time ``t``; ``undo`` is what a rate change at
        #: instant ``t`` folded away (see :meth:`set_rate`).
        self.v = 0.0
        self.t = sim.now
        self.undo: Optional[tuple] = None
        #: When the head member completes; an engine-heap entry
        #: ``(due, seq, cls)`` is valid while it matches.
        self.due = _INF
        self._comp: Optional["_Component"] = None

    def progress(self, now: float) -> float:
        return self.v + self.rate * (now - self.t)

    def fold(self, now: float) -> None:
        """Bring the clock up to ``now`` at the current rate."""
        self.v += self.rate * (now - self.t)
        self.t = now
        self.undo = None

    def set_rate(self, rate: float, now: float) -> None:
        """Fold the old rate's progress into the clock, then switch.  A
        later change in the same instant back to the rate the class ran
        at before it undoes the fold, so settling once per instant or
        after every op leaves the clock, and every completion time
        computed from it, bit-identical."""
        if self.t != now:
            undo = (self.v, self.t, self.rate)
            self.fold(now)
            self.undo = undo
        elif self.undo is not None and self.undo[2] == rate:
            self.v, self.t, _rate = self.undo
            self.undo = None
        self.rate = rate

    def restrict(self) -> None:
        """Re-derive the path restricted to the component's binding set."""
        binding = self._comp.binding
        self.bpath = tuple([r for r in self.path if r in binding])


class _Component:
    """A lazily split union of live connected components: a rebalance
    that touches one whose class count halved since its peak re-derives
    it from the live adjacency first (amortized O(1) per removal)."""

    __slots__ = ("classes", "resources", "binding", "peak", "nlive",
                 "capped", "nflows")

    def __init__(self) -> None:
        self.classes: set[_FlowClass] = set()
        self.resources: set[SharedResource] = set()
        #: The binding set: the resources :func:`_fill` runs over, each
        #: with its ``nlive`` count.  Every other resource holds a slack
        #: certificate (:func:`_slack`).
        self.binding: dict[SharedResource, int] = {}
        self.peak = 0
        #: Live *flow* count per resource.
        self.nlive: dict[SharedResource, int] = {}
        #: Live classes with a finite cap (the fill's cap heap).
        self.capped: set[_FlowClass] = set()
        self.nflows = 0  # live flows


class FairShareSystem:
    """Manages all fluid flows of one simulation and their fair rates."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._classes: dict[tuple, _FlowClass] = {}  # by (path, cap)
        self._class_seq = 0
        self._flow_seq = 0
        self._last_update = 0.0
        #: Lazy-deletion heap of (due, class seq, class).
        self._due_heap: list = []
        #: The armed completion timer (a ``call_in`` handle), None once
        #: fired, and the instant it fires at.
        self._timer = None
        self._timer_at = 0.0
        #: Resources touched since the last flush, or ``None`` when rates
        #: are settled; see :meth:`_touch` / :meth:`settle`.
        self._seeds: Optional[list[SharedResource]] = None
        # -- engine cost counters (benchmark census, test_engine_counters) --
        self.completed_count = 0
        self.rebalance_count = 0
        self.flow_visits = 0  # class inspections by the accepted fills
        self.fill_reruns = 0  # fills redone after a failed certificate
        self.timer_cancellations = 0
        self.max_component_flows = 0
        #: Optional sink (anything with ``append``) handed every flow that
        #: leaves the system — completed or closed — once, after
        #: its end_time is final; the observatory installs a
        #: :class:`repro.observatory.attribution.FlowLog` here.
        self.flow_log = None

    # -- public API ------------------------------------------------------
    def open(self, path: Sequence[SharedResource], size: float,
             cap: Optional[float] = None, name: str = "flow") -> FluidFlow:
        """Start a flow; ``flow.done`` triggers with the flow on completion.

        ``size`` may be ``math.inf`` for an open-ended background load that
        is ended with :meth:`close`.  A path crosses each resource once.
        """
        if size < 0:
            raise ResourceError(f"flow size must be >= 0, got {size}")
        if not path:
            raise ResourceError("flow path must contain at least one resource")
        if len(set(path)) != len(path):
            raise ResourceError(f"flow {name!r} crosses a resource twice")
        if cap is not None and cap <= 0:
            raise ResourceError(f"flow cap must be > 0, got {cap}")
        now = self.sim.now
        flow = FluidFlow(name, path, size, cap, self.sim.event(), now)
        self._flow_seq += 1
        flow._seq = self._flow_seq
        self._advance()
        if size <= _EPS and math.isfinite(size):
            # Zero-size fast path: the flow set is unchanged, so no rates
            # move — succeed the event and touch nothing.
            flow._moved = flow.size
            flow.end_time = now
            flow.done.succeed(flow)
            return flow
        key = (flow.path, flow.cap)
        cls = self._classes.get(key)
        if cls is None:
            self._class_seq += 1
            cls = self._classes[key] = _FlowClass(flow.path, flow.cap,
                                                  self._class_seq, self.sim)
            self._attach_class(cls)
        else:
            nlive, binding = cls._comp.nlive, cls._comp.binding
            for res in cls.path:
                nlive[res] += 1
            for res in cls.bpath:
                binding[res] += 1
        cls._comp.nflows += 1
        cls.n += 1
        cls.members.add(flow)
        flow._cls = cls
        flow._v0 = v0 = cls.v + cls.rate * (now - cls.t)
        if flow.size != _INF:
            heap = cls.heap
            heapq.heappush(heap, (v0 + flow.size, flow._seq, flow))
            if heap[0][2] is flow:
                self._reschedule(cls)
        self._touch(cls.path)
        return flow

    def close(self, flow: FluidFlow) -> float:
        """End an open-ended (or any active) flow early.

        Returns the amount transferred.  The flow's ``done`` event triggers
        with the flow.
        """
        if flow._cls is None:
            raise ResourceError(f"flow {flow.name!r} is not active")
        self._advance()
        cls = flow._cls
        if cls is None:  # it completed at this very instant
            return flow._moved
        was_head = cls.heap and cls.heap[0][2] is flow
        self._detach(flow, completed=False)
        if was_head and cls.members:
            self._reschedule(cls)
        flow.done.succeed(flow)
        self._touch(cls.path)
        return flow._moved

    def set_capacity(self, resource: SharedResource, capacity: float) -> None:
        """Change a resource's capacity mid-simulation (fault injection).

        Progress up to *now* ran at the old rates and the busy integral is
        flushed at the old capacity; this instant's flush recomputes rates,
        so a degradation only affects units still to be moved.
        """
        if not 0 < capacity < math.inf:
            raise ResourceError(
                f"resource {resource.name!r} needs a finite capacity > 0, "
                f"got {capacity}")
        self._advance()
        resource._accrue(self.sim.now)
        resource.capacity = float(capacity)
        self._touch((resource,))

    def settle(self) -> None:
        """Bring every rate, due time and load up to date (idempotent).

        The kernel calls this at the end of each instant in which the flow
        set or a capacity changed; anything that *reads* ``flow.rate``,
        ``current_load`` or ``utilization`` from inside such an instant
        calls it first.  ``busy_time``/``moved_through``/``transferred``
        need no settle: the pre-flush rates are their integrand up to now.
        """
        seeds = self._seeds
        if seeds is not None:
            self._seeds = None
            self._rebalance(seeds)

    @property
    def active_flows(self) -> frozenset[FluidFlow]:
        """The live flows, with settled rates."""
        self.settle()
        return frozenset(flow for cls in self._classes.values()
                         for flow in cls.members)

    def flows_through(self, resource: SharedResource) -> frozenset[FluidFlow]:
        self.settle()
        return frozenset(flow for cls in resource._classes
                         for flow in cls.members)

    # -- internals ---------------------------------------------------------
    def _touch(self, resources: Iterable[SharedResource] = ()) -> None:
        """Record resources whose flow set or capacity just changed; the
        first touch of an instant books its one :meth:`settle`."""
        if self._seeds is None:
            self._seeds = []
            self.sim.at_instant_end(self.settle)
        self._seeds.extend(resources)

    def _detach(self, flow: FluidFlow, completed: bool) -> None:
        cls = flow._cls
        now = self.sim.now
        flow._moved = flow.size if completed else cls.progress(now) - flow._v0
        flow._cls = None
        flow.end_time = now
        cls.members.discard(flow)
        cls.n -= 1
        comp = cls._comp
        comp.nflows -= 1
        for counts, path in ((comp.nlive, cls.path),
                             (comp.binding, cls.bpath)):
            for res in path:
                n = counts[res] - 1
                if n:
                    counts[res] = n
                else:  # idle: load 0 certifies it until a flow returns
                    del counts[res]
        if not cls.n:  # the class dies
            del self._classes[(cls.path, cls.cap)]
            cls.due = _INF
            cls.heap = []
            comp.classes.discard(cls)
            comp.capped.discard(cls)
            cls._comp = None
            for res in cls.path:
                classes = res._classes
                del classes[cls]
                if not classes:
                    res._set_load(0.0, now)
        if self.flow_log is not None:
            self.flow_log.append(flow)

    def _reschedule(self, cls: _FlowClass) -> None:
        """Recompute the class's due time from its clock and head member."""
        heap = cls.heap
        while heap and heap[0][2]._cls is not cls:
            heapq.heappop(heap)
        rate = cls.rate
        if heap and rate > _EPS:
            due = cls.due = cls.t + (heap[0][0] - cls.v) / rate
            heapq.heappush(self._due_heap, (due, cls.seq, cls))
        else:
            cls.due = _INF

    def _advance(self) -> None:
        """Complete every member that is due by now.

        Only classes due within ``_MIN_DT`` are touched: each folds its
        clock to now and pops the members within ``_MIN_DT`` of service
        (or ``_EPS`` relative) of their target.  They detach, fire
        ``done`` in (due, class seq, target, flow seq) order and touch
        their paths for this instant's flush.  O(1) when no simulated time
        has passed — the common cascade case — or nothing is due.
        """
        now = self.sim.now
        last = self._last_update
        if now == last:
            return
        if now < last:  # pragma: no cover - defensive
            raise SimulationError("fair-share clock went backwards")
        if self._seeds is not None:
            raise SimulationError(
                f"the clock moved to t={now} but the fair-share rates "
                f"touched at t={last} were never settled")
        self._last_update = now
        heap = self._due_heap
        bound = now + _MIN_DT
        due: list[_FlowClass] = []
        while heap and heap[0][0] <= bound:
            when, _seq, cls = heapq.heappop(heap)
            if cls.due == when:
                cls.due = _INF
                due.append(cls)
        finished: list[FluidFlow] = []
        for cls in due:
            cls.fold(now)
            v = cls.v
            slack = cls.rate * _MIN_DT
            members = cls.heap
            while members:
                target, _seq, flow = members[0]
                if flow._cls is cls:
                    left = target - v
                    if left > slack and left > _EPS * max(1.0, flow.size):
                        break
                    finished.append(flow)
                heapq.heappop(members)
        for flow in finished:
            cls = flow._cls
            self._detach(flow, completed=True)
            self.completed_count += 1
            flow.done.succeed(flow)
            self._touch(cls.path)
        for cls in due:
            if cls.members:
                self._reschedule(cls)

    def _attach_class(self, cls: _FlowClass) -> None:
        """Union the components the new class's path bridges; merging the
        smaller into the larger bounds merge work at O(n log n) a run."""
        comp: Optional[_Component] = None
        for res in cls.path:
            other = res._comp
            if other is None or other is comp:
                continue
            if comp is None:
                comp = other
                continue
            if len(other.classes) > len(comp.classes):
                comp, other = other, comp
            for r in other.resources:
                r._comp = comp
            comp.resources.update(other.resources)
            for c in other.classes:
                c._comp = comp
            comp.classes.update(other.classes)
            # Components are resource-disjoint: no incidence collisions,
            # and certificates are per-resource facts.
            comp.nlive.update(other.nlive)
            comp.capped.update(other.capped)
            comp.binding.update(other.binding)
            comp.nflows += other.nflows
        if comp is None:
            comp = _Component()
        comp.classes.add(cls)
        cls._comp = comp
        nlive, binding = comp.nlive, comp.binding
        for res in cls.path:
            res._classes[cls] = None
            if res._comp is not comp:  # a resource joins bound
                res._comp = comp
                comp.resources.add(res)
                binding[res] = 0
            n = nlive[res] = nlive.get(res, 0) + 1
            if res in binding:
                binding[res] = n
        if cls.cap != _INF:
            comp.capped.add(cls)
        comp.peak = max(comp.peak, len(comp.classes))
        cls.restrict()
        if not cls.bpath and cls.cap == _INF:
            # Nothing in the binding set could freeze it: bind its path.
            self._rebind(cls.path, True)

    def _split_component(self, comp: _Component) -> None:
        """Re-derive true components from a shrunken union: one walk over
        its live adjacency; resources left without classes drop out."""
        for res in comp.resources:
            if res._comp is comp:
                res._comp = None
        pending, binding = comp.classes, comp.binding
        for cls in pending:
            cls._comp = None
        while pending:
            part = _Component()
            first = pending.pop()
            first._comp = part
            part.classes.add(first)
            stack = [first]
            while stack:
                for res in stack.pop().path:
                    if res._comp is part:
                        continue
                    res._comp = part
                    part.resources.add(res)
                    for nxt in res._classes:
                        if nxt._comp is not part:
                            nxt._comp = part
                            part.classes.add(nxt)
                            pending.discard(nxt)
                            stack.append(nxt)
            part.peak = len(part.classes)
            nlive = part.nlive
            for c in part.classes:
                part.nflows += c.n
                for r in c.path:
                    nlive[r] = nlive.get(r, 0) + c.n
                if c.cap != _INF:
                    part.capped.add(c)
            part.binding = {r: nlive[r] for r in binding.keys()
                            & part.resources}

    def _scope(self, seeds: list[SharedResource]
               ) -> tuple[set[_FlowClass], dict[SharedResource, int],
                          set[_FlowClass], dict[SharedResource, int], int]:
        """The touched components' classes, live-flow counts, capped
        classes, binding set and flow count, after splitting any that
        halved since their peak.  One component — the common case — is
        aliased, not copied."""
        while True:
            comps = [comp for comp in dict.fromkeys([res._comp
                                                      for res in seeds])
                     if comp is not None]
            stale = [c for c in comps if 2 * len(c.classes) < c.peak]
            if not stale:
                break
            # A split drains its input, so re-derive; fresh parts sit at
            # their peak and the second pass always breaks.
            for comp in stale:
                self._split_component(comp)
        if len(comps) == 1:
            comp = comps[0]
            return (comp.classes, comp.nlive, comp.capped, comp.binding,
                    comp.nflows)
        nlive: dict[SharedResource, int] = {}
        binding: dict[SharedResource, int] = {}
        for comp in comps:
            nlive.update(comp.nlive)
            binding.update(comp.binding)
        return (set().union(*(c.classes for c in comps)), nlive,
                set().union(*(c.capped for c in comps)), binding,
                sum([c.nflows for c in comps]))

    @staticmethod
    def _rebind(resources: Iterable[SharedResource], bind: bool) -> None:
        """Move resources into (or out of) their components' binding sets
        and refresh the restricted paths of the classes crossing them."""
        crossing: dict[_FlowClass, None] = {}
        for res in resources:
            comp = res._comp
            if bind:
                comp.binding[res] = comp.nlive[res]
            else:
                del comp.binding[res]
            crossing.update(res._classes)
        for cls in crossing:
            cls.restrict()

    def _rebalance(self, seeds: list[SharedResource]) -> None:
        """Fill the touched component(s) over their binding sets, sum the
        load of every resource whose load, capacity or flow count can have
        moved — the seeds and changed classes' paths — once, check the
        certificates of the unbound ones and refill with any that fail.
        Then write back the rates that changed (folding those classes'
        clocks and rescheduling them), store the loads, drop the bound
        ones that neither saturated nor fail their certificates, and
        re-arm the timer.  Rates outside the scope would be reproduced."""
        now = self.sim.now
        self.rebalance_count += 1
        classes, nlive, capped, binding, n_flows = self._scope(seeds)
        if classes:
            while True:
                rates, visits, saturated = _fill(classes, binding, capped)
                changed = [cls for cls, rate in rates.items()
                           if rate != cls.rate]
                reload = set(seeds)
                for cls in changed:
                    reload.update(cls.path)
                loads, unsafe = {}, []
                for res in reload:
                    load = 0  # in insertion order, as ``_slack`` assumes
                    for c in res._classes:
                        load += rates[c] * c.n
                    loads[res] = load
                    if res not in binding and not _slack(
                            res, load, nlive.get(res, 0)):
                        unsafe.append(res)
                if not unsafe:
                    break
                self.fill_reruns += 1
                self._rebind(unsafe, True)
                for res in unsafe:  # a no-op unless a union copy
                    binding[res] = nlive[res]
            self.flow_visits += visits
            for cls in changed:
                cls.set_rate(rates[cls], now)
                self._reschedule(cls)
            self.max_component_flows = max(self.max_component_flows, n_flows)
            for res, load in loads.items():
                res._set_load(load, now)
            # Only reloaded resources can drop (*Binding sets* above).
            dropped = [res for res in binding if res in loads
                       and res not in saturated
                       and _slack(res, loads[res], binding[res])]
            if dropped:
                self._rebind(dropped, False)
        self._schedule_next()

    def _schedule_next(self) -> None:
        heap = self._due_heap
        while heap and heap[0][2].due != heap[0][0]:
            heapq.heappop(heap)
        if heap:
            now = self.sim.now
            delay = max(heap[0][0] - now, _MIN_DT)
            at = now + delay  # the kernel's own sum: the instant it fires
        timer = self._timer
        if timer is not None:  # armed and not yet fired
            if heap and at == self._timer_at:
                return  # it already fires when the head is due: keep it
            self._timer = None
            timer.cancel()
            self.timer_cancellations += 1
        if heap:
            self._timer = self.sim.call_in(delay, self._on_timer)
            self._timer_at = at

    def _on_timer(self) -> None:
        self._timer = None
        self._advance()
        self._touch()  # even with nothing completed, re-arm the timer


class FlowOp(Event):
    """A leaf operation (CPU work, disk I/O, a transfer) as a callback event.

    A zero-delay call runs ``start(op, *args)`` where a process body would
    have started (at ``op.started``); it may :meth:`wait` and :meth:`move`
    one flow named ``name``.  The op ends with ``bill(op, moved, *args)``,
    the event's value; ``moved`` is ``amount`` if the op completes.
    :meth:`cancel` withdraws the pending call (nothing moved) or closes the
    flow and bills what it moved; before the start it bills nothing.
    """

    __slots__ = ("fss", "amount", "name", "started", "_bill", "_args",
                 "_call", "_flow")

    def __init__(self, fss: FairShareSystem, amount: float, name: str,
                 start: Callable[..., None], bill: Callable[..., Any],
                 *args: Any):
        super().__init__(fss.sim)
        self.fss, self.amount, self.name = fss, amount, name
        self._bill, self._args = bill, args
        self.started: Optional[float] = None
        self._flow: Optional[FluidFlow] = None
        self._call = fss.sim.call_in(0.0, self._fire, start, (self, *args))

    def cancel(self) -> None:
        if self._triggered:
            return
        flow = self._flow
        if self._call is not None:
            self._call.cancel()
        elif flow.active:
            self.fss.close(flow)
        if self.started is None:
            self.succeed(0.0)
        else:
            self._end(0.0 if flow is None else flow.transferred)

    def wait(self, delay: float, fn: Callable[..., None], *args: Any) -> None:
        """Call ``fn(*args)`` after ``delay`` seconds (at once if 0)."""
        if delay > 0:
            self._call = self.sim.call_in(delay, self._fire, fn, args)
        else:
            fn(*args)

    def move(self, path: Sequence[SharedResource], size: float,
             cap: Optional[float] = None) -> None:
        """Move ``size`` along ``path`` in one flow, then end with ``amount``;
        nothing to move ends the op at once."""
        if path and size > 0:
            flow = self._flow = self.fss.open(path, size, cap=cap,
                                              name=self.name)
            flow.done.callbacks.append(self._moved)
        else:
            self._end(self.amount)

    def _fire(self, fn: Callable[..., None], args: tuple) -> None:
        if self.started is None:  # the first call is the start
            self.started = self.sim.now
        self._call = None
        fn(*args)

    def _moved(self, _done: Event) -> None:
        if not self._triggered:  # else cancelled as the flow completed
            self._end(self.amount)

    def _end(self, moved: float) -> None:
        self.succeed(self._bill(self, moved, *self._args))


def _slack(res: SharedResource, load: float, n: int) -> bool:
    """The slack certificate of a resource with ``n`` live flows carrying
    ``load``: true when no fill round can bring it down to the level (the
    module docstring derives the margin)."""
    cap = res.capacity
    return cap - load > n * _ULPS * cap


def _fill(classes: set[_FlowClass], counts: dict[SharedResource, int],
          capped: set[_FlowClass]
          ) -> tuple[dict[_FlowClass, float], int, set[SharedResource]]:
    """Progressive filling over the classes of one (union of) component(s),
    walking only the binding set: ``counts`` is its live-flow counts (read,
    never written) and each class's ``bpath`` its path restricted to it.

    Each round freezes every class it binds at the round's level (*Caps*
    in the module docstring), so a resource's frozen load grows by one
    ``k * level`` and its unfrozen count falls by ``k``, ``k`` the integer
    count of flows frozen on it (no set order in the sum); the load only
    where flows stay unfrozen.  Unfrozen counters start from ``counts``;
    the minimum cap comes from a lazy-deletion heap of ``capped``.

    Returns ``(rates, visits, saturated)``: ``visits`` counts class
    inspections, ``saturated`` the resources that bound a round.
    """
    rates: dict[_FlowClass, float] = {}
    visits = 0
    saturated: set[SharedResource] = set()
    left = len(classes)
    n_unfrozen = dict(counts)
    frozen_load: dict[SharedResource, float] = {}
    cap_heap = [(c.cap, c.seq, c) for c in capped]
    if cap_heap:
        heapq.heapify(cap_heap)
    sat_levels: dict[SharedResource, float] = {
        res: res.capacity / n for res, n in n_unfrozen.items()}
    level = 0.0
    while left:
        next_level = min(sat_levels.values(), default=_INF)
        while cap_heap and cap_heap[0][2] in rates:
            heapq.heappop(cap_heap)
        if cap_heap and cap_heap[0][0] < next_level:
            next_level = cap_heap[0][0]
        if next_level == _INF:  # pragma: no cover - defensive
            raise ResourceError("unbounded fair-share level")
        if next_level > level:
            level = next_level
        frozen: list[_FlowClass] = []
        while cap_heap and cap_heap[0][0] <= level:
            cls = heapq.heappop(cap_heap)[2]
            if cls not in rates:
                rates[cls] = level
                frozen.append(cls)
        visits += len(frozen)
        for res in [r for r, sat in sat_levels.items() if sat <= next_level]:
            visits += len(res._classes)  # this resource saturates here
            saturated.add(res)
            for cls in res._classes:
                if cls not in rates:
                    rates[cls] = level
                    frozen.append(cls)
        if not frozen:  # pragma: no cover - defensive
            raise ResourceError("a fair-share round froze no flow")
        left -= len(frozen)
        if not left:  # nothing reads the last round's loads
            break
        adds: dict[SharedResource, int] = {}
        for cls in frozen:
            n = cls.n
            for res in cls.bpath:
                adds[res] = adds.get(res, 0) + n
        for res, k in adds.items():
            n = n_unfrozen[res] = n_unfrozen[res] - k
            if n:
                load = frozen_load[res] = frozen_load.get(res, 0.0) + k * level
                sat_levels[res] = (res.capacity - load) / n
            else:
                sat_levels.pop(res, None)
    return rates, visits, saturated
