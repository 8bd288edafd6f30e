"""Tenants of the always-on service: specs, SLOs and per-tenant accounting.

A :class:`TenantSpec` declares who a tenant is (priority class, in-flight
quota, latency target); the :class:`TenantRegistry` owns the fleet and can
mint deterministic synthetic fleets for experiments.  Per-tenant outcome
counters accumulate in :class:`TenantStats`; latency percentiles are the
service's, in :class:`~repro.cloud.controller.ServiceReport`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

from repro.errors import ConfigError
from repro.telemetry.metrics import LatencyHistogram  # noqa: F401 re-export

#: Priority classes, most important first.  Admission sheds load from the
#: bottom of this ladder upward (batch first, interactive last).
PRIORITIES = ("interactive", "standard", "batch")


@dataclass(frozen=True)
class TenantSpec:
    """One tenant of the always-on service."""

    name: str
    priority: str = "standard"      # one of PRIORITIES
    weight: float = 1.0             # relative share of offered load
    quota_inflight: int = 8         # max concurrent admitted jobs
    latency_slo_s: float = 600.0    # p99 completion-latency target

    def __post_init__(self) -> None:
        if self.priority not in PRIORITIES:
            raise ConfigError(f"unknown priority {self.priority!r}")
        if self.weight <= 0:
            raise ConfigError("tenant weight must be positive")
        if self.quota_inflight < 1:
            raise ConfigError("quota_inflight must be >= 1")
        if self.latency_slo_s <= 0:
            raise ConfigError("latency_slo_s must be positive")

    @property
    def priority_rank(self) -> int:
        """0 = most important (shed last)."""
        return PRIORITIES.index(self.priority)


@dataclass
class TenantStats:
    """Everything counted about one tenant's traffic."""

    tenant: str
    submitted: int = 0
    admitted: int = 0
    rejected_quota: int = 0
    rejected_overload: int = 0
    completed: int = 0
    failed: int = 0
    inflight: int = 0

    @property
    def rejected(self) -> int:
        return self.rejected_quota + self.rejected_overload


class TenantRegistry:
    """The fleet of tenants one service instance carries."""

    def __init__(self):
        self._tenants: dict[str, tuple[TenantSpec, TenantStats]] = {}

    def register(self, spec: TenantSpec) -> TenantSpec:
        if spec.name in self._tenants:
            raise ConfigError(f"tenant {spec.name!r} already registered")
        self._tenants[spec.name] = (spec, TenantStats(tenant=spec.name))
        return spec

    def lookup(self, name: str) -> tuple[TenantSpec, TenantStats]:
        """``(spec, stats)`` of tenant ``name`` in one dict lookup."""
        try:
            return self._tenants[name]
        except KeyError:
            raise ConfigError(f"unknown tenant {name!r}") from None

    def __len__(self) -> int:
        return len(self._tenants)

    def __contains__(self, name: str) -> bool:
        return name in self._tenants

    def __iter__(self) -> Iterator[TenantSpec]:
        return (spec for spec, _stats in self._tenants.values())

    @property
    def names(self) -> list[str]:
        return list(self._tenants)

    # -- synthetic fleets --------------------------------------------------
    @classmethod
    def synthetic(cls, n_tenants: int, rng,
                  latency_slo_s: float = 600.0,
                  quota_scale: float = 32.0) -> "TenantRegistry":
        """Mint a deterministic fleet of ``n_tenants`` synthetic tenants.

        Weights are Zipf-ish (a few heavy hitters, a long tail), priorities
        follow a fixed 20/60/20 interactive/standard/batch split, and
        quotas are ``ceil(quota_scale * weight) + 2`` — size
        ``quota_scale`` to the offered load (roughly ``expected total
        inflight / total weight`` times the headroom you want) so quotas
        bite on abusive bursts rather than on steady fair traffic; the
        flat ``+2`` keeps Poisson noise from rejecting tail tenants whose
        expected inflight is below one.  All
        draws come from the caller's named ``rng`` stream so the fleet is
        a pure function of the seed.
        """
        if n_tenants < 1:
            raise ConfigError("n_tenants must be >= 1")
        if quota_scale <= 0:
            raise ConfigError("quota_scale must be > 0")
        registry = cls()
        width = max(3, len(str(n_tenants - 1)))
        for index, draw in enumerate(rng.random(n_tenants).tolist()):
            weight = 1.0 / (1 + index) ** 0.8
            if draw < 0.2:
                priority, slo_scale = "interactive", 0.5
            elif draw < 0.8:
                priority, slo_scale = "standard", 1.0
            else:
                priority, slo_scale = "batch", 2.0
            registry.register(TenantSpec(
                name=f"tenant-{index:0{width}d}",
                priority=priority,
                weight=weight,
                quota_inflight=int(math.ceil(quota_scale * weight)) + 2,
                latency_slo_s=latency_slo_s * slo_scale))
        return registry
