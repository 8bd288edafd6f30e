"""Structured tracing of simulation events and spans.

Models emit :class:`TraceEvent` records ("vm.boot.start", "migration.round",
...) through a shared :class:`Tracer`.  The monitor, experiment harnesses,
and tests read these back; they are also the primary debugging surface of
the simulator.

On top of point events, the tracer records **spans**: intervals with a kind,
a name, and a parent link (job → phase → task/attempt → shuffle transfer;
VM boots; migrations).  Opening a span emits a ``<kind>.start`` event and
closing it a ``<kind>.end`` event, so the span layer is a strict refinement
of the event log — every consumer of the flat log keeps working.  The
:mod:`repro.telemetry` package analyses and exports the recorded spans.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Optional


@dataclass(frozen=True)
class TraceEvent:
    """One timestamped occurrence with free-form attributes."""

    time: float
    kind: str
    source: str
    attrs: dict[str, Any] = field(default_factory=dict)

    def __getitem__(self, key: str) -> Any:
        return self.attrs[key]


@dataclass
class Span:
    """One named interval in simulated time, with a parent link.

    ``end`` is NaN until the span is closed via :meth:`Tracer.end_span`.
    """

    span_id: int
    kind: str                 # dot-namespaced, e.g. "task.map.attempt"
    name: str                 # instance label, e.g. "m-00003"
    start: float
    end: float = float("nan")
    parent_id: Optional[int] = None
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def open(self) -> bool:
        return self.end != self.end  # NaN check

    @property
    def duration(self) -> float:
        return self.end - self.start

    def __getitem__(self, key: str) -> Any:
        return self.attrs[key]


class Tracer:
    """Append-only trace log with kind-based filtering and subscriptions."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.events: list[TraceEvent] = []
        self.spans: list[Span] = []
        self._span_ids = itertools.count(1)
        self._subscribers: list[tuple[Optional[str], Callable[[TraceEvent], None]]] = []

    def emit(self, time: float, kind: str, source: str, **attrs: Any) -> None:
        """Record an event (no-op when tracing is disabled)."""
        self._emit(time, kind, source, attrs)

    def _emit(self, time: float, kind: str, source: str,
              attrs: dict[str, Any]) -> None:
        if not self.enabled and not self._subscribers:
            return
        event = TraceEvent(time=time, kind=kind, source=source, attrs=attrs)
        if self.enabled:
            self.events.append(event)
        for prefix, callback in self._subscribers:
            if prefix is None or event.kind.startswith(prefix):
                callback(event)

    # -- spans ---------------------------------------------------------------
    def begin_span(self, time: float, kind: str, name: str,
                   parent: Optional[Span] = None, **attrs: Any) -> Span:
        """Open a span and emit its ``<kind>.start`` event."""
        span = Span(span_id=next(self._span_ids), kind=kind, name=name,
                    start=time,
                    parent_id=parent.span_id if parent else None,
                    attrs=dict(attrs))
        self._emit(time, f"{kind}.start", name,
                   {"span": span.span_id, "parent": span.parent_id, **attrs})
        return span

    def end_span(self, span: Span, time: float, **attrs: Any) -> Span:
        """Close a span, record it, and emit its ``<kind>.end`` event."""
        span.end = time
        span.attrs.update(attrs)
        if self.enabled:
            self.spans.append(span)
        self._emit(time, f"{span.kind}.end", span.name,
                   {"span": span.span_id, "parent": span.parent_id, **attrs})
        return span

    def subscribe(self, callback: Callable[[TraceEvent], None],
                  prefix: Optional[str] = None) -> None:
        """Call ``callback`` for every future event whose kind starts with
        ``prefix`` (or for all events when ``prefix`` is None)."""
        self._subscribers.append((prefix, callback))

    def unsubscribe(self, callback: Callable[[TraceEvent], None]) -> None:
        """Drop every subscription using ``callback`` (no-op when absent)."""
        self._subscribers = [(p, c) for p, c in self._subscribers
                             if c is not callback]

    def select(self, prefix: str) -> Iterator[TraceEvent]:
        """Iterate recorded events whose kind starts with ``prefix``."""
        return (e for e in self.events if e.kind.startswith(prefix))

    def count(self, prefix: str) -> int:
        return sum(1 for _ in self.select(prefix))
