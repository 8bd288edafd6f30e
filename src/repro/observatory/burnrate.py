"""Multi-window multi-burn-rate SLO evaluation over the time-series store.

The one way a service SLO fires.  Paging the instant a rolling signal
crosses a line flaps under diurnal/burst traffic and says nothing about
*how much* of the service's promise has been spent; this module does
error-budget math in the Google SRE style instead:

* each :class:`BurnPolicy` names an **error-fraction series** in a
  :class:`~repro.telemetry.timeseries.TimeSeriesStore` (one sample per
  control tick, each sample the fraction of that tick's events that
  violated the objective — or a 0/1 indicator for state objectives like
  backlog) and an error **budget** (the long-run fraction the service is
  allowed to burn);
* a **burn rate** is the observed error fraction over a window divided
  by the budget — burn 1x spends the budget exactly, burn 10x spends it
  ten times too fast;
* each policy evaluates several :class:`BurnWindow` pairs; an alert
  fires only when **both** the long window (evidence the burn is real)
  and the short window (evidence it is *still happening*) exceed the
  pair's burn threshold.  The long window keeps one bad tick from
  paging; the short window makes the alert resolve promptly once the
  burn stops.

The engine fires into an :class:`~repro.observatory.slo.AlertBook`
under the :data:`~repro.observatory.slo.SERVICE_SLOS` names
(``service-backlog`` / ``service-p99`` / ``service-rejection``), which is
where the :class:`~repro.cloud.autoscaler.ElasticAutoscaler`'s alert
cursor picks them up.  :class:`~repro.cloud.controller.ServiceController`
builds one per service and drives it every control tick;
``experiments/service.py`` asserts a clean steady run fires nothing.

Window lengths and budgets are expressed in **sim-time seconds** and
scaled to the experiments' horizons (minutes, not the SRE book's
30-day months); the detection-time algebra is the same: a total outage
is caught after ``burn x budget x long_s`` seconds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover
    from repro.observatory.slo import AlertBook
    from repro.telemetry.timeseries import TimeSeriesStore

#: Error-fraction series names the service controller records.
SERIES_LATENCY = "slo.error.latency"
SERIES_REJECTION = "slo.error.rejection"
SERIES_BACKLOG = "slo.error.backlog"


@dataclass(frozen=True)
class BurnWindow:
    """One (long, short) window pair with its burn-rate threshold."""

    long_s: float
    short_s: float
    burn: float
    label: str = "fast"

    def __post_init__(self) -> None:
        if not (0 < self.short_s <= self.long_s):
            raise ConfigError(
                f"need 0 < short_s <= long_s, got {self.short_s}/"
                f"{self.long_s}")
        if self.burn <= 0:
            raise ConfigError(f"burn threshold must be > 0, got {self.burn}")


@dataclass(frozen=True)
class BurnPolicy:
    """Error budget for one SLO, evaluated over one store series."""

    slo: str                  # AlertBook SLO name to fire/resolve
    series: str               # error-fraction series in the store
    budget: float             # allowed long-run error fraction
    attribution: str = "capacity"
    windows: tuple[BurnWindow, ...] = ()

    def __post_init__(self) -> None:
        if not 0 < self.budget < 1:
            raise ConfigError(f"budget must be in (0, 1), got {self.budget}")
        for window in self.windows:
            if window.burn * self.budget > 1.0:
                raise ConfigError(
                    f"{self.slo}: burn {window.burn} x budget "
                    f"{self.budget} exceeds 1.0 — an error fraction can "
                    f"never reach it, the alert would be dead")


#: Default window pairs: a fast pair that catches a hard burn within
#: ~a sim-minute, and a slow pair that catches a simmering one.
DEFAULT_BURN_WINDOWS = (
    BurnWindow(long_s=300.0, short_s=60.0, burn=10.0, label="fast"),
    BurnWindow(long_s=1800.0, short_s=300.0, burn=2.0, label="slow"),
)

#: The service-mode policy catalogue.  Budgets are scaled to experiment
#: horizons: 2% of completions may miss the latency target, 2% of
#: control ticks may queue beyond the backlog objective, 1% of arrivals
#: may be rejected, before the budget is spent at burn 1x.
SERVICE_BURN_POLICIES: tuple[BurnPolicy, ...] = (
    BurnPolicy("service-backlog", SERIES_BACKLOG, budget=0.02,
               attribution="capacity", windows=DEFAULT_BURN_WINDOWS),
    BurnPolicy("service-p99", SERIES_LATENCY, budget=0.02,
               attribution="capacity", windows=DEFAULT_BURN_WINDOWS),
    BurnPolicy("service-rejection", SERIES_REJECTION, budget=0.01,
               attribution="admission",
               windows=(BurnWindow(300.0, 60.0, 5.0, "fast"),
                        BurnWindow(1800.0, 300.0, 2.0, "slow"))),
)


@dataclass(frozen=True)
class BurnState:
    """One policy's burn rates at one evaluation (for reports/tests)."""

    slo: str
    window: str
    long_burn: float
    short_burn: float
    firing: bool


class BurnRateEngine:
    """Evaluates burn policies over a store; fires into an alert book.

    The caller records error-fraction samples (one per control tick —
    :meth:`observe_service_tick` covers the service-mode trio) and calls
    :meth:`evaluate` each tick.  Alerts carry the burn context in
    ``detail`` and the worst long-window burn as ``value``; they
    resolve with 0.5x hysteresis once every window's long burn calms.
    """

    def __init__(self, store: "TimeSeriesStore", book: "AlertBook",
                 target: str,
                 policies: tuple[BurnPolicy, ...] = SERVICE_BURN_POLICIES,
                 labels: Optional[dict] = None,
                 backlog_objective: float = 1.0):
        if not policies:
            raise ConfigError("need at least one burn policy")
        self.store = store
        self.book = book
        self.target = target
        self.policies = tuple(policies)
        #: Each policy's distinct window lengths (the fast pair's long
        #: window is the slow pair's short one).
        self._spans = tuple(
            tuple(sorted({span for window in policy.windows
                          for span in (window.long_s, window.short_s)}))
            for policy in self.policies)
        self.labels = dict(labels) if labels else None
        #: Backlog per slot counted as budget burn.  Deliberately low:
        #: budget math needs an objective that trips early and pages
        #: only when the burn is sustained.
        self.backlog_objective = backlog_objective
        self.evaluations = 0
        self.last_states: list[BurnState] = []

    # -- recording ---------------------------------------------------------
    def record(self, series: str, fraction: float,
               at: Optional[float] = None) -> None:
        """Record one error-fraction sample (clamped to [0, 1])."""
        self.store.record(series, min(1.0, max(0.0, fraction)),
                          labels=self.labels, at=at)

    def observe_service_tick(self, now: float, *, latency_error: float,
                             rejection_frac: float,
                             backlog_per_slot: float) -> None:
        """Record the service-mode error trio for one control tick."""
        self.record(SERIES_LATENCY, latency_error, at=now)
        self.record(SERIES_REJECTION, rejection_frac, at=now)
        self.record(SERIES_BACKLOG,
                    1.0 if backlog_per_slot > self.backlog_objective
                    else 0.0, at=now)

    # -- evaluation --------------------------------------------------------
    def _burns(self, policy: BurnPolicy, spans: tuple[float, ...],
               now: float) -> dict[float, float]:
        """Burn rate over ``(now - span, now]`` for each window length."""
        series = self.store.get(policy.series, self.labels)
        if series is None:
            return dict.fromkeys(spans, 0.0)
        return {span: series.trailing_mean(now, span) / policy.budget
                for span in spans}

    def evaluate(self, now: float) -> list[BurnState]:
        """Fire/resolve every policy; returns the per-window burn states.

        A window of length ``W`` covers ``(now - W, now]``: the tick just
        recorded counts, the one ``W`` seconds back does not.  Each
        distinct length is summed once per tick.
        """
        self.evaluations += 1
        states: list[BurnState] = []
        for policy, spans in zip(self.policies, self._spans):
            burn = self._burns(policy, spans, now)
            worst: Optional[tuple[float, float, BurnWindow]] = None
            for window in policy.windows:
                long_burn = burn[window.long_s]
                short_burn = burn[window.short_s]
                firing = (long_burn >= window.burn
                          and short_burn >= window.burn)
                states.append(BurnState(policy.slo, window.label,
                                        long_burn, short_burn, firing))
                if firing and (worst is None or long_burn > worst[0]):
                    worst = (long_burn, short_burn, window)
            if worst is not None:
                long_burn, short_burn, window = worst
                self.book.fire(
                    policy.slo, self.target, long_burn,
                    policy.attribution,
                    detail=(f"{window.label} burn {long_burn:.1f}x/"
                            f"{short_burn:.1f}x over {window.long_s:.0f}s/"
                            f"{window.short_s:.0f}s "
                            f"(budget {policy.budget:g})"))
            elif self.book.is_active(policy.slo, self.target):
                if all(burn[window.long_s] < window.burn * 0.5
                       for window in policy.windows):
                    self.book.resolve(policy.slo, self.target)
        self.last_states = states
        return states

    def digest(self) -> str:
        """The underlying store's digest (series content, byte-stable)."""
        return self.store.digest()

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<BurnRateEngine target={self.target} "
                f"policies={len(self.policies)} "
                f"evaluations={self.evaluations}>")
