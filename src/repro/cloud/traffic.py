"""Open-loop traffic for the always-on service.

Arrival processes generate timestamped :class:`Arrival` records *lazily*
(``stream(horizon)`` is an iterator — a million-submission run never holds
a million objects at once) and *deterministically*: every draw comes from
one named RNG stream, so the same seed yields a byte-identical trace,
pinned by :func:`trace_digest` in tests and CI.

Open-loop means arrival times never depend on service state — the
generator keeps offering load whether or not the service keeps up, which
is what makes backlog growth, load shedding and autoscaling observable at
all (a closed loop self-throttles and hides them).

Shapes:

* :class:`PoissonTraffic` — homogeneous Poisson at a fixed rate;
* :class:`DiurnalTraffic` — sinusoidal day/night rate (thinning);
* :class:`BurstTraffic` — base rate with periodic multiplied bursts;
* :class:`TraceReplay` — replays a recorded list verbatim.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, Iterator, Optional

from repro.cloud.tenants import TenantRegistry
from repro.digest import Digest
from repro.errors import ConfigError

#: (class name, min MB, max MB, probability) — the service job mix.
JOB_CLASSES: tuple[tuple[str, float, float, float], ...] = (
    ("small", 16.0, 128.0, 0.60),
    ("medium", 128.0, 1024.0, 0.30),
    ("large", 1024.0, 8192.0, 0.10),
)


#: JOB_CLASSES as the sampler reads it:
#: (class name, min MB, log(max/min), cumulative probability).
_CLASS_BANDS = tuple(
    (name, lo_mb, math.log(hi_mb / lo_mb), acc)
    for (name, lo_mb, hi_mb, _), acc
    in zip(JOB_CLASSES, accumulate(prob for *_, prob in JOB_CLASSES)))


def mean_job_size_mb() -> float:
    """Expected job size under the mix (log-uniform mean per class),
    used to size service capacity against an offered arrival rate."""
    return sum(prob * (hi - lo) / math.log(hi / lo)
               for _, lo, hi, prob in JOB_CLASSES)


@dataclass(frozen=True)
class Arrival:
    """One offered request, before admission."""

    at: float            # arrival time (s)
    tenant: str
    job_class: str       # small / medium / large
    size_mb: float       # input volume
    request_id: str

    def line(self) -> str:
        """Fixed-format record (the unit the trace digest hashes)."""
        return (f"{self.at:.6f}|{self.tenant}|{self.job_class}|"
                f"{self.size_mb:.3f}|{self.request_id}")


def trace_digest(arrivals: Iterable[Arrival]) -> str:
    """Streaming :mod:`repro.digest` over the fixed-format arrival lines.

    Mirrors :meth:`~repro.observatory.slo.AlertBook.digest`: same-seed
    runs must agree byte-for-byte, asserted by tests and the CI
    ``determinism`` job.
    """
    h = Digest()
    for arrival in arrivals:
        h.update(arrival.line() + "\n")
    return h.hex()


class ArrivalProcess:
    """Base: turns a time sequence into tenant/class/size-decorated
    arrivals.  Subclasses implement :meth:`_times`."""

    def __init__(self, name: str, tenants: TenantRegistry, rng):
        if len(tenants) == 0:
            raise ConfigError("traffic needs at least one tenant")
        self.name = name
        self.tenants = tenants
        self.rng = rng
        # ``a + (b - a) * random()`` and ``scale * standard_exponential()``
        # are the doubles ``uniform(a, b)`` / ``exponential(scale)`` return,
        # minus NumPy's per-call argument parsing (pinned by the tests).
        self._random = rng.random
        self._exponential = rng.standard_exponential
        self._seq = 0
        # Cumulative tenant weights for O(log n) weighted choice.
        self._names = tenants.names
        self._cum: list[float] = []
        total = 0.0
        for spec in tenants:
            total += spec.weight
            self._cum.append(total)
        self._total_weight = total

    # -- decoration --------------------------------------------------------
    def _pick_tenant(self) -> str:
        draw = self._total_weight * self._random()
        # First tenant whose cumulative weight exceeds the draw; the
        # search stops short of the last so rounding can never overrun.
        return self._names[bisect_right(self._cum, draw, 0,
                                        len(self._cum) - 1)]

    def _pick_class(self) -> tuple[str, float]:
        draw = self._random()
        for name, lo_mb, log_span, acc in _CLASS_BANDS:
            if draw < acc:
                break
        # (no break: the last class takes the rounding remainder)
        # Log-uniform size inside the class band.
        return name, lo_mb * math.exp(self._random() * log_span)

    def _decorate(self, at: float) -> Arrival:
        tenant = self._pick_tenant()
        job_class, size_mb = self._pick_class()
        request_id = f"{self.name}-{self._seq:08d}"
        self._seq += 1
        return Arrival(at=at, tenant=tenant, job_class=job_class,
                       size_mb=size_mb, request_id=request_id)

    # -- the stream --------------------------------------------------------
    def _times(self, horizon_s: float) -> Iterator[float]:
        raise NotImplementedError

    def stream(self, horizon_s: float) -> Iterator[Arrival]:
        """Lazily yield arrivals with ``at`` strictly below ``horizon_s``."""
        if horizon_s <= 0:
            raise ConfigError("horizon_s must be positive")
        for at in self._times(horizon_s):
            yield self._decorate(at)

    def materialize(self, horizon_s: float) -> list[Arrival]:
        return list(self.stream(horizon_s))


class PoissonTraffic(ArrivalProcess):
    """Homogeneous Poisson arrivals at ``rate_per_s``."""

    def __init__(self, name: str, tenants: TenantRegistry, rng,
                 rate_per_s: float):
        super().__init__(name, tenants, rng)
        if rate_per_s <= 0:
            raise ConfigError("rate_per_s must be positive")
        self.rate_per_s = float(rate_per_s)

    def _times(self, horizon_s: float) -> Iterator[float]:
        t = 0.0
        draw, scale = self._exponential, 1.0 / self.rate_per_s
        while True:
            t += scale * draw()
            if t >= horizon_s:
                return
            yield t


class _ThinnedProcess(ArrivalProcess):
    """Non-homogeneous Poisson via Lewis–Shedler thinning.

    Subclasses provide ``peak_rate`` and ``rate_at(t)``; candidates are
    drawn at the peak rate and accepted with probability
    ``rate_at(t) / peak_rate`` — exact, and deterministic under the named
    RNG stream.
    """

    peak_rate: float

    def rate_at(self, t: float) -> float:
        raise NotImplementedError

    def _times(self, horizon_s: float) -> Iterator[float]:
        t = 0.0
        exponential, random = self._exponential, self._random
        peak_rate, rate_at = self.peak_rate, self.rate_at
        scale = 1.0 / peak_rate
        while True:
            t += scale * exponential()
            if t >= horizon_s:
                return
            if random() < rate_at(t) / peak_rate:
                yield t


class DiurnalTraffic(_ThinnedProcess):
    """Sinusoidal day/night load: rate(t) = base·(1 + amp·sin(2πt/period))."""

    def __init__(self, name: str, tenants: TenantRegistry, rng,
                 base_rate_per_s: float, amplitude: float = 0.6,
                 period_s: float = 86400.0, phase: float = 0.0):
        super().__init__(name, tenants, rng)
        if base_rate_per_s <= 0:
            raise ConfigError("base_rate_per_s must be positive")
        if not 0.0 <= amplitude < 1.0:
            raise ConfigError("amplitude must be in [0, 1)")
        self.base_rate_per_s = float(base_rate_per_s)
        self.amplitude = float(amplitude)
        self.period_s = float(period_s)
        self.phase = float(phase)
        self.peak_rate = self.base_rate_per_s * (1.0 + self.amplitude)

    def rate_at(self, t: float) -> float:
        return self.base_rate_per_s * (
            1.0 + self.amplitude
            * math.sin(2.0 * math.pi * t / self.period_s + self.phase))


class BurstTraffic(_ThinnedProcess):
    """Base-rate Poisson with periodic multiplied burst windows.

    Every ``burst_every_s`` the rate jumps to ``base · burst_factor`` for
    ``burst_duration_s`` — the flash-crowd shape the autoscaler ablation
    uses.  ``burst_factor=1`` degenerates to plain Poisson.
    """

    def __init__(self, name: str, tenants: TenantRegistry, rng,
                 base_rate_per_s: float, burst_factor: float = 4.0,
                 burst_every_s: float = 3600.0,
                 burst_duration_s: float = 300.0,
                 first_burst_at_s: Optional[float] = None):
        super().__init__(name, tenants, rng)
        if base_rate_per_s <= 0:
            raise ConfigError("base_rate_per_s must be positive")
        if burst_factor < 1.0:
            raise ConfigError("burst_factor must be >= 1")
        if not 0 < burst_duration_s <= burst_every_s:
            raise ConfigError(
                "need 0 < burst_duration_s <= burst_every_s")
        self.base_rate_per_s = float(base_rate_per_s)
        self.burst_factor = float(burst_factor)
        self.burst_every_s = float(burst_every_s)
        self.burst_duration_s = float(burst_duration_s)
        self.first_burst_at_s = (float(first_burst_at_s)
                                 if first_burst_at_s is not None
                                 else float(burst_every_s))
        self.peak_rate = self.base_rate_per_s * self.burst_factor

    def in_burst(self, t: float) -> bool:
        if t < self.first_burst_at_s:
            return False
        offset = (t - self.first_burst_at_s) % self.burst_every_s
        return offset < self.burst_duration_s

    def rate_at(self, t: float) -> float:
        if self.in_burst(t):
            return self.base_rate_per_s * self.burst_factor
        return self.base_rate_per_s


class TraceReplay(ArrivalProcess):
    """Replay a recorded arrival list verbatim (ignores its own RNG)."""

    def __init__(self, name: str, tenants: TenantRegistry, rng,
                 trace: Iterable[Arrival]):
        super().__init__(name, tenants, rng)
        self.trace = sorted(trace, key=lambda a: (a.at, a.request_id))
        for arrival in self.trace:
            if arrival.tenant not in tenants:
                raise ConfigError(
                    f"trace references unknown tenant {arrival.tenant!r}")

    def stream(self, horizon_s: float) -> Iterator[Arrival]:
        if horizon_s <= 0:
            raise ConfigError("horizon_s must be positive")
        for arrival in self.trace:
            if arrival.at >= horizon_s:
                return
            yield arrival

    def _times(self, horizon_s: float) -> Iterator[float]:  # pragma: no cover
        raise NotImplementedError("TraceReplay overrides stream()")
