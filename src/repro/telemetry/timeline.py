"""Per-job timeline reconstruction and critical-path analysis.

Given the spans one job emitted (plus the VM-lifecycle and migration spans
that overlapped its run), this module answers the question every
performance PR has to answer first: *which chain of work determined the
makespan?*

The critical path is reconstructed by a backward latest-predecessor walk:
starting from the job span's end, repeatedly pick the latest-finishing work
span that ends at or before the head of the chain and starts strictly
earlier, until the job span's start is reached.  Intervals not covered by
any span on the chain are attributed to explicit ``wait`` segments
(heartbeat latency, slot queueing, phase barriers), so the path's total
duration reproduces the measured makespan *exactly by construction* — the
interesting outputs are which spans sit on the path and how much of it is
wait versus work.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from repro.errors import MonitorError
from repro.sim.trace import Span
from repro.telemetry import events as EV

_EPS = 1e-9

#: Span categories eligible for the critical path (phases overlap their own
#: children wholesale and would shadow them, so they are excluded).
_PATH_CATEGORIES = frozenset(
    {"task", "shuffle", "hdfs", "vm", "migration", "net"})

#: Categories where one logical unit of work may leave several attempt
#: spans under the same name (task retries/speculation, shuffle re-fetch).
_ATTEMPT_CATEGORIES = frozenset({"task", "shuffle"})


def _superseded_ids(spans: Sequence[Span]) -> set[int]:
    """Span ids of attempts whose work another attempt redid.

    A chaos-killed or speculation-losing attempt closes with
    ``failed=True`` / ``won=False``; when a sibling attempt under the same
    ``(kind, name)`` succeeded, the loser's span must not count as
    critical-path work — its wall time is recovery latency (an explicit
    wait), not a second helping of the task's runtime.  Attempts with no
    successful sibling (e.g. a job that ultimately failed) are kept.
    """
    winners: set[tuple[str, str]] = set()
    for s in spans:
        if (EV.category_of(s.kind) in _ATTEMPT_CATEGORIES
                and not s.attrs.get("failed")
                and s.attrs.get("won") is not False):
            winners.add((s.kind, s.name))
    return {
        s.span_id for s in spans
        if EV.category_of(s.kind) in _ATTEMPT_CATEGORIES
        and (s.attrs.get("failed") or s.attrs.get("won") is False)
        and (s.kind, s.name) in winners}


@dataclass(frozen=True)
class PathSegment:
    """One link of the critical path: a span, or an attributed wait gap."""

    start: float
    end: float
    span: Optional[Span] = None          # None for a wait segment

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def label(self) -> str:
        if self.span is None:
            return "wait"
        return f"{self.span.kind}:{self.span.name}"


@dataclass
class CriticalPath:
    """The chain of spans (and waits) that determined one job's makespan."""

    job: str
    start: float
    end: float
    segments: list[PathSegment] = field(default_factory=list)

    @property
    def makespan(self) -> float:
        """Total path duration — equals sum of its segment durations."""
        return sum(seg.duration for seg in self.segments)

    @property
    def work_s(self) -> float:
        return sum(s.duration for s in self.segments if s.span is not None)

    @property
    def wait_s(self) -> float:
        return sum(s.duration for s in self.segments if s.span is None)

    @property
    def coverage(self) -> float:
        """Fraction of the makespan covered by spans (1 − wait share)."""
        span = self.end - self.start
        return self.work_s / span if span > 0 else 0.0

    def span_segments(self) -> list[PathSegment]:
        return [s for s in self.segments if s.span is not None]


@dataclass
class JobTimeline:
    """All spans of one job run, rooted at its ``job.run`` span."""

    job: str
    job_span: Span
    spans: list[Span] = field(default_factory=list)    # every related span

    @property
    def makespan(self) -> float:
        return self.job_span.duration

    def children_of(self, span: Span) -> list[Span]:
        return [s for s in self.spans if s.parent_id == span.span_id]

    def by_kind(self, kind: str) -> list[Span]:
        return [s for s in self.spans if s.kind == kind]

    def categories(self) -> set[str]:
        return {EV.category_of(s.kind) for s in self.spans}

    def critical_path(self) -> CriticalPath:
        return critical_path(self.job_span, self.spans)


def _descendant_ids(root: Span, spans: Sequence[Span]) -> set[int]:
    ids = {root.span_id}
    grew = True
    while grew:
        grew = False
        for span in spans:
            if span.parent_id in ids and span.span_id not in ids:
                ids.add(span.span_id)
                grew = True
    return ids


def build_timeline(job_name: str, spans: Iterable[Span]) -> JobTimeline:
    """Reconstruct one job's timeline from a flat span log.

    The timeline holds the job's own span tree plus any unparented
    VM/migration spans that overlap the job window — those contend for the
    same hosts and can carry the critical path.
    """
    pool = [s for s in spans if not s.open]
    roots = [s for s in pool
             if s.kind == EV.JOB_RUN and s.name == job_name]
    if not roots:
        raise MonitorError(f"no {EV.JOB_RUN} span recorded for job "
                           f"{job_name!r} (is tracing enabled?)")
    root = roots[-1]           # latest run under this name
    ids = _descendant_ids(root, pool)
    related = [s for s in pool if s.span_id in ids]
    for span in pool:
        if span.span_id in ids:
            continue
        if EV.category_of(span.kind) in ("vm", "migration") \
                and span.end > root.start and span.start < root.end:
            related.append(span)
    related.sort(key=lambda s: (s.start, s.span_id))
    return JobTimeline(job=job_name, job_span=root, spans=related)


def critical_path(job_span: Span, spans: Sequence[Span]) -> CriticalPath:
    """Backward latest-predecessor walk from the job span's end."""
    superseded = _superseded_ids(spans)
    candidates = [
        s for s in spans
        if s is not job_span and not s.open
        and s.span_id not in superseded
        and EV.category_of(s.kind) in _PATH_CATEGORIES
        and s.end <= job_span.end + _EPS
        and s.start >= job_span.start - _EPS]
    chain: list[Span] = []
    head = job_span.end
    while head > job_span.start + _EPS:
        best = None
        for s in candidates:
            if s.end <= head + _EPS and s.start < head - _EPS:
                if best is None or (s.end, s.end - s.start) > \
                        (best.end, best.end - best.start):
                    best = s
        if best is None:
            break
        chain.append(best)
        head = best.start
        candidates = [s for s in candidates if s.start < head - _EPS]

    chain.reverse()
    segments: list[PathSegment] = []
    cursor = job_span.start
    for span in chain:
        if span.start > cursor + _EPS:
            segments.append(PathSegment(start=cursor, end=span.start))
        segments.append(PathSegment(start=span.start, end=span.end,
                                    span=span))
        cursor = span.end
    if job_span.end > cursor + _EPS:
        segments.append(PathSegment(start=cursor, end=job_span.end))
    return CriticalPath(job=job_span.name, start=job_span.start,
                        end=job_span.end, segments=segments)
