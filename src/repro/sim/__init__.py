"""Discrete-event simulation substrate.

The kernel (:mod:`repro.sim.kernel`) is a small generator-coroutine
discrete-event simulator in the style of SimPy: *processes* are Python
generators that ``yield`` events; the :class:`~repro.sim.kernel.Simulator`
advances virtual time from event to event.

On top of the kernel:

* :mod:`repro.sim.fairshare` — fluid-flow max-min fair sharing of capacitated
  resources, the single mechanism used for CPU, NIC, disk and NFS contention;
* :mod:`repro.sim.resources` — counting semaphores (task slots);
* :mod:`repro.sim.rng` — named deterministic random streams;
* :mod:`repro.sim.trace` — structured event tracing.
"""

from repro.sim.kernel import (
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    PeriodicCall,
    Process,
    Simulator,
    Timeout,
)
from repro.sim.fairshare import FairShareSystem, FluidFlow, SharedResource
from repro.sim.resources import Resource
from repro.sim.rng import RngRegistry
from repro.sim.trace import Span, TraceEvent, Tracer

__all__ = [
    "AllOf",
    "AnyOf",
    "Event",
    "FairShareSystem",
    "FluidFlow",
    "Interrupt",
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
