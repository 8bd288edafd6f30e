"""Discrete-event simulation substrate.

The kernel (:mod:`repro.sim.kernel`) is a small discrete-event simulator:
*processes* are generators that ``yield`` events, callbacks are ``call_in``
entries, and ``cancel()`` is synchronous — nothing is thrown into a body.

On top of the kernel:

* :mod:`repro.sim.fairshare` — fluid-flow max-min fair sharing of capacitated
  resources, the single mechanism used for CPU, NIC, disk and NFS contention,
  and ``FlowOp``, the callback event of every compute, disk I/O and transfer;
* :mod:`repro.sim.resources` — counting semaphores (task slots);
* :mod:`repro.sim.rng` — named deterministic random streams;
* :mod:`repro.sim.trace` — structured event tracing.
"""

from repro.sim.kernel import (
    AllOf,
    AnyOf,
    Event,
    PeriodicCall,
    Process,
    Simulator,
    Timeout,
)
from repro.sim.fairshare import FairShareSystem, FlowOp, FluidFlow, SharedResource
from repro.sim.resources import Resource
from repro.sim.rng import RngRegistry
from repro.sim.trace import Span, TraceEvent, Tracer

__all__ = [
    "AllOf",
    "AnyOf",
    "Event",
    "FairShareSystem",
    "FlowOp",
    "FluidFlow",
    "PeriodicCall",
    "Process",
    "Resource",
    "RngRegistry",
    "SharedResource",
    "Simulator",
    "Span",
    "Timeout",
    "TraceEvent",
    "Tracer",
]
