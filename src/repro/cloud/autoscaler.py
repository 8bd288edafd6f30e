"""Alert-driven elastic autoscaling — the first closed control loop.

The observatory (and the service controller's own SLO evaluation) write
into an :class:`~repro.observatory.slo.AlertBook`; the
:class:`ElasticAutoscaler` *acts* on it, driving an
:class:`~repro.platform.provisioning.ElasticWorkerPool`:

* **scale out** on ``service-backlog`` / ``service-p99`` alerts — a fresh
  fire, or one still active after the cooldown (the book deduplicates,
  so a persisting violation fires exactly once; acting only on fires
  would scale once and stall);
* **replace** capacity on fresh ``node-down`` alerts, bypassing the
  cooldown — lost workers are not a demand signal;
* **avoid** the targets of active ``hot-host`` alerts when placing new
  VMs;
* **scale in** conservatively: only after ``scale_in_ticks`` consecutive
  ticks of low utilisation with no active service alerts, one worker at
  a time, never below the pool's floor — so a clean, correctly
  provisioned run never churns.

Alert consumption follows the tuner's one-shot cursor contract
(:class:`AlertCursor`): each rule keeps a position in the book's
append-only history and processes every fire exactly once, while *active*
state is re-read live.  Decisions are pure functions of (book, pool,
utilisation), so same-seed runs scale identically — the action log and
``cloud.autoscale.action`` events are digest-pinned in CI.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigError
from repro.observatory.slo import Alert, AlertBook
from repro.telemetry import events as EV


class AlertCursor:
    """One-shot consumer of one SLO's fire history in an alert book.

    ``fresh()`` returns every alert of the SLO fired since the last call
    — each fire is seen exactly once, the same contract as the tuner's
    alert-driven rules.  Resolves are *not* replayed; callers needing
    live state use :meth:`AlertBook.active`.
    """

    def __init__(self, book: AlertBook, slo: str):
        self.book = book
        self.slo = slo
        self._cursor = 0

    def fresh(self) -> list[Alert]:
        history = self.book.history(self.slo)
        new = history[self._cursor:]
        self._cursor = len(history)
        return new


@dataclass(frozen=True)
class ScalingAction:
    """One actuation the autoscaler performed."""

    at: float
    action: str        # grow / shrink / replace
    amount: int        # workers started or drains initiated
    trigger: str       # slo name, or "utilization" for scale-in
    size_after: int    # pool.size after acting
    detail: str = ""

    def line(self) -> str:
        return (f"{self.at:.6f}|{self.action}|{self.amount}|{self.trigger}|"
                f"{self.size_after}|{self.detail}")


class ElasticAutoscaler:
    """Drives an ElasticWorkerPool from alert-book state, once per tick."""

    #: SLOs whose alerts mean "add capacity".
    SCALE_OUT_SLOS = ("service-backlog", "service-p99")

    def __init__(self, pool, book: AlertBook, service: str = "service",
                 cooldown_s: float = 120.0, grow_step: int = 2,
                 scale_in_util: float = 0.3, scale_in_ticks: int = 6,
                 tracer=None):
        if cooldown_s < 0:
            raise ConfigError("cooldown_s must be >= 0")
        if grow_step < 1:
            raise ConfigError("grow_step must be >= 1")
        if not 0.0 <= scale_in_util < 1.0:
            raise ConfigError("scale_in_util must be in [0, 1)")
        if scale_in_ticks < 1:
            raise ConfigError("scale_in_ticks must be >= 1")
        self.pool = pool
        self.book = book
        self.service = service
        self.cooldown_s = cooldown_s
        self.grow_step = grow_step
        self.scale_in_util = scale_in_util
        self.scale_in_ticks = scale_in_ticks
        self.tracer = tracer
        self.actions: list[ScalingAction] = []
        self._out_cursors = [AlertCursor(book, slo)
                             for slo in self.SCALE_OUT_SLOS]
        self._down_cursor = AlertCursor(book, "node-down")
        self._last_grow_at: Optional[float] = None
        self._low_ticks = 0

    # -- the control step --------------------------------------------------
    def tick(self, now: float, utilization: float) -> list[ScalingAction]:
        """One control decision; returns the actions taken this tick."""
        taken: list[ScalingAction] = []
        avoid = self.avoid_hosts()

        # Replacement: every fresh node-down alert is capacity already
        # lost — grow immediately, no cooldown (not a demand signal).
        down = self._down_cursor.fresh()
        if down:
            started = self.pool.grow(len(down), avoid_hosts=avoid)
            if started:
                taken.append(self._record(
                    now, "replace", started, "node-down",
                    detail=",".join(sorted(a.target for a in down))))

        # Scale-out: fresh fires always qualify; a still-active alert
        # qualifies again once the cooldown has elapsed (the book fires
        # once per violation episode — see module docstring).
        trigger = None
        for cursor in self._out_cursors:
            if cursor.fresh():
                trigger = cursor.slo
                break
        in_cooldown = (self._last_grow_at is not None
                       and now - self._last_grow_at < self.cooldown_s)
        if trigger is None and not in_cooldown:
            for slo in self.SCALE_OUT_SLOS:
                if self.book.active(slo):
                    trigger = slo
                    break
        if trigger is not None and not in_cooldown:
            started = self.pool.grow(self.grow_step, avoid_hosts=avoid)
            if started:
                self._last_grow_at = now
                taken.append(self._record(now, "grow", started, trigger))

        # Scale-in: sustained low utilisation, no active service alerts.
        calm = not any(self.book.active(slo)
                       for slo in self.SCALE_OUT_SLOS + ("node-down",))
        if calm and utilization < self.scale_in_util and trigger is None:
            self._low_ticks += 1
            if self._low_ticks >= self.scale_in_ticks:
                self._low_ticks = 0
                stopped = self.pool.shrink()
                if stopped:
                    taken.append(self._record(
                        now, "shrink", stopped, "utilization",
                        detail=f"util={utilization:.3f}"))
        else:
            self._low_ticks = 0
        return taken

    def avoid_hosts(self) -> set[str]:
        """Hosts currently under an active hot-host alert."""
        return {a.target for a in self.book.active("hot-host")}

    def _record(self, now: float, action: str, amount: int, trigger: str,
                detail: str = "") -> ScalingAction:
        record = ScalingAction(at=now, action=action, amount=amount,
                               trigger=trigger, size_after=self.pool.size,
                               detail=detail)
        self.actions.append(record)
        if self.tracer is not None:
            self.tracer.emit(now, EV.CLOUD_AUTOSCALE, self.service,
                             action=action, amount=amount, trigger=trigger,
                             size=self.pool.size)
        return record
