"""Open-loop traffic for the always-on service.

Every generated arrival process is one thinned (Lewis–Shedler) Poisson
process, drawn in blocks of :data:`BLOCK` candidates from one named RNG
stream:

1. candidate times: one ``standard_exponential(BLOCK)`` scaled to the
   process's ``peak_rate`` and summed on from the previous block's last
   candidate;
2. acceptance: one ``random(BLOCK)`` compared against the vectorised
   ``rate_at(t) / peak_rate``;
3. decoration of the accepted candidates: tenant (weighted, by
   ``searchsorted`` on the cumulative weights), job class and log-uniform
   size, one array draw each, skipped for whatever the process pins.

The horizon cuts a block only after all of that is drawn, so the draws
never depend on it: ``stream(H1)`` is a prefix of ``stream(H2)``, the same
seed yields a byte-identical trace (pinned by :func:`trace_digest`), and
memory stays one block whatever the horizon.  The distributions are
checked statistically in ``tests/cloud/test_traffic.py``.

Open-loop means arrival times never depend on service state — the
generator keeps offering load whether or not the service keeps up, which
is what makes backlog growth, load shedding and autoscaling observable at
all (a closed loop self-throttles and hides them).

Shapes (each a ``peak_rate`` plus a ``rate_at``):

* :class:`PoissonTraffic` — homogeneous Poisson at a fixed rate;
* :class:`DiurnalTraffic` — sinusoidal day/night rate;
* :class:`BurstTraffic` — base rate with periodic multiplied bursts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

import numpy as np

from repro.cloud.tenants import TenantRegistry
from repro.digest import Digest
from repro.errors import ConfigError

#: (class name, min MB, max MB, probability) — the service job mix.
JOB_CLASSES: tuple[tuple[str, float, float, float], ...] = (
    ("small", 16.0, 128.0, 0.60),
    ("medium", 128.0, 1024.0, 0.30),
    ("large", 1024.0, 8192.0, 0.10),
)

#: Candidates drawn per block.
BLOCK = 4096

#: JOB_CLASSES as the sampler reads it: names, cumulative probabilities
#: short of the last class (which takes the rounding remainder), and each
#: band's min MB and log(max/min).
_CLASS_NAMES = np.array([name for name, *_ in JOB_CLASSES], dtype=object)
_CLASS_ACC = np.cumsum([prob for *_, prob in JOB_CLASSES])[:-1]
_CLASS_LO = np.array([lo for _, lo, _, _ in JOB_CLASSES])
_CLASS_SPAN = np.array([math.log(hi / lo) for _, lo, hi, _ in JOB_CLASSES])


def mean_job_size_mb() -> float:
    """Expected job size under the mix (log-uniform mean per class),
    used to size service capacity against an offered arrival rate."""
    return sum(prob * (hi - lo) / math.log(hi / lo)
               for _, lo, hi, prob in JOB_CLASSES)


@dataclass(slots=True)
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
    """A thinned Poisson process drawn in blocks (module docstring).

    A subclass is a parameterisation: ``peak_rate`` (candidates per
    second), :meth:`rate_at` (vectorised over candidate times; a candidate
    at ``t`` is accepted with probability ``rate_at(t) / peak_rate``), and
    optionally a pinned ``tenant``, ``job_class`` or ``size_mb`` — left
    ``None``, each is drawn (a drawn size is log-uniform in the arrival's
    class band).
    """

    peak_rate: float
    tenant: Optional[str] = None
    job_class: Optional[str] = None
    size_mb: Optional[float] = None

    def __init__(self, name: str, tenants: TenantRegistry, rng):
        if len(tenants) == 0:
            raise ConfigError("traffic needs at least one tenant")
        self.name = name
        self.tenants = tenants
        self.rng = rng
        self._seq = 0
        self._names = np.array(tenants.names, dtype=object)
        cum = np.cumsum([spec.weight for spec in tenants])
        self._total_weight = cum[-1]
        # Short of the last tenant, so rounding can never overrun.
        self._cum = cum[:-1]

    def rate_at(self, t):
        """Offered rate at ``t`` (a time or an array of them)."""
        raise NotImplementedError

    # -- the stream --------------------------------------------------------
    def stream(self, horizon_s: float) -> Iterator[Arrival]:
        """Lazily yield arrivals with ``at`` strictly below ``horizon_s``."""
        if horizon_s <= 0:
            raise ConfigError("horizon_s must be positive")
        return self._generate(horizon_s)

    def _generate(self, horizon_s: float) -> Iterator[Arrival]:
        rng, peak = self.rng, self.peak_rate
        scale = 1.0 / peak
        prefix = f"{self.name}-"
        t = 0.0
        while t < horizon_s:
            gaps = scale * rng.standard_exponential(BLOCK)
            gaps[0] += t
            times = gaps.cumsum()
            t = times[-1]
            at = times[rng.random(BLOCK) < self.rate_at(times) / peak]
            tenants, classes, sizes = self._draw_mix(len(at))
            first = self._seq
            self._seq += len(at)
            keep = int(at.searchsorted(horizon_s))
            yield from map(Arrival, at[:keep].tolist(), tenants[:keep],
                           classes[:keep], sizes[:keep],
                           [f"{prefix}{seq:08d}"
                            for seq in range(first, first + keep)])

    def _draw_mix(self, n: int) -> tuple[list, list, list]:
        """Tenants, class names and sizes of ``n`` accepted candidates,
        one array draw each unless pinned."""
        rng = self.rng
        if self.tenant is None:
            draws = self._total_weight * rng.random(n)
            tenants = self._names[self._cum.searchsorted(
                draws, side="right")].tolist()
        else:
            tenants = [self.tenant] * n
        if self.job_class is None:
            index = _CLASS_ACC.searchsorted(rng.random(n), side="right")
        else:
            index = np.full(n, list(_CLASS_NAMES).index(self.job_class))
        if self.size_mb is None:
            sizes = (_CLASS_LO[index]
                     * np.exp(rng.random(n) * _CLASS_SPAN[index])).tolist()
        else:
            sizes = [self.size_mb] * n
        return tenants, _CLASS_NAMES[index].tolist(), sizes

    def materialize(self, horizon_s: float) -> list[Arrival]:
        return list(self.stream(horizon_s))


class PoissonTraffic(ArrivalProcess):
    """Homogeneous Poisson arrivals at ``rate_per_s``."""

    def __init__(self, name: str, tenants: TenantRegistry, rng,
                 rate_per_s: float):
        super().__init__(name, tenants, rng)
        if rate_per_s <= 0:
            raise ConfigError("rate_per_s must be positive")
        self.rate_per_s = self.peak_rate = float(rate_per_s)

    def rate_at(self, t):
        return self.rate_per_s


#: Day peak 1.5x, night trough 0.5x the mean rate.
DIURNAL_AMPLITUDE = 0.5


class DiurnalTraffic(ArrivalProcess):
    """Sinusoidal day/night: base·(1 + DIURNAL_AMPLITUDE·sin(2πt/period_s))."""

    def __init__(self, name: str, tenants: TenantRegistry, rng,
                 base_rate_per_s: float, period_s: float = 86400.0):
        super().__init__(name, tenants, rng)
        if base_rate_per_s <= 0:
            raise ConfigError("base_rate_per_s must be positive")
        self.base_rate_per_s = float(base_rate_per_s)
        self.period_s = float(period_s)
        self.peak_rate = self.base_rate_per_s * (1.0 + DIURNAL_AMPLITUDE)

    def rate_at(self, t):
        return self.base_rate_per_s * (
            1.0 + DIURNAL_AMPLITUDE
            * np.sin(2.0 * math.pi * t / self.period_s))


class BurstTraffic(ArrivalProcess):
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

    def in_burst(self, t):
        """Whether ``t`` (a time or an array of them) is inside a burst."""
        offset = (t - self.first_burst_at_s) % self.burst_every_s
        return (t >= self.first_burst_at_s) & (offset < self.burst_duration_s)

    def rate_at(self, t):
        return np.where(self.in_burst(t), self.peak_rate,
                        self.base_rate_per_s)
