"""Adversarial tenant actors: traffic sources engineered to hurt.

Hand-written service traffic (:mod:`repro.cloud.traffic`) is friendly by
construction — tenant/class/size draws follow the configured mix.  Real
multi-tenant clusters also see *adversarial* tenants, and the scenario
fuzzer (:mod:`repro.fuzz`) treats them as a first-class dimension.  Each
actor is deterministic for a seed (the same two-process byte-identical
contract as every other traffic source, pinned by ``trace_digest`` in
tests) and comes in two forms:

* an **arrival process** usable anywhere a
  :class:`~repro.cloud.traffic.ArrivalProcess` is (service mode,
  admission studies): one misbehaving tenant riding on top of a normal
  registry — a parameterisation of the one block generator that pins
  the tenant (and, for skew and spam, the class and size);
* a **payload** the fuzz runner materializes
  (:mod:`repro.fuzz.execute`): the records that make the job hostile.

Actors
------
``hotkey``
    Hot-key flood: a corpus where one token dominates, so one reducer
    key absorbs most of the shuffle — the classic hot-partition skew.
``skew``
    Straggler-inducing partition skew: record keys crafted so the hash
    partitioner funnels almost everything into one reduce partition.
``spam``
    Noisy-neighbor batch spam: a dense train of tiny jobs from one
    tenant that steals scheduler heartbeats and slots from everyone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.cloud.traffic import JOB_CLASSES, ArrivalProcess, PoissonTraffic
from repro.errors import ConfigError

#: The adversary kinds the fuzzer composes into scenarios.
ADVERSARY_KINDS = ("hotkey", "skew", "spam")


@dataclass(frozen=True)
class AdversarySpec:
    """One adversarial actor in a scenario: who misbehaves and how hard.

    ``intensity`` scales the attack (1 = mild, 3 = vicious): the hot-key
    fraction, the skew ratio, or the spam job count.
    """

    kind: str
    intensity: int = 1
    tenant: str = "adversary"

    def validate(self) -> None:
        if self.kind not in ADVERSARY_KINDS:
            raise ConfigError(
                f"unknown adversary kind {self.kind!r}; "
                f"expected one of {sorted(ADVERSARY_KINDS)}")
        if not 1 <= self.intensity <= 3:
            raise ConfigError(
                f"adversary intensity must be in 1..3, got {self.intensity}")
        if not self.tenant:
            raise ConfigError("adversary needs a tenant name")

    def key(self) -> str:
        return f"{self.kind}|{self.intensity}|{self.tenant}"


# -- arrival processes (service mode side) ----------------------------------

def _registered(tenant: str, tenants) -> str:
    if tenant not in tenants:
        raise ConfigError(f"adversary tenant {tenant!r} is not in the "
                          "registry")
    return tenant


class HotKeyFloodTraffic(ArrivalProcess):
    """Bursty single-tenant flood: silence, then dense bursts.

    Models a tenant that periodically hammers the service with
    correlated requests, starving admission windows for everyone else:
    a ``BURST_LEN_S`` burst of Poisson arrivals at ``burst_rate`` every
    ``BURST_EVERY_S`` seconds from t=0, nothing in between (acceptance
    is "inside a burst window").
    """

    BURST_EVERY_S, BURST_LEN_S = 120.0, 10.0

    def __init__(self, name: str, tenants, rng, tenant: str,
                 burst_rate: float = 2.0):
        super().__init__(name, tenants, rng)
        if burst_rate <= 0:
            raise ConfigError("burst_rate must be positive")
        self.tenant = _registered(tenant, tenants)
        self.burst_rate = self.peak_rate = float(burst_rate)

    def rate_at(self, t):
        return np.where(t % self.BURST_EVERY_S < self.BURST_LEN_S,
                        self.burst_rate, 0.0)


class StragglerSkewTraffic(PoissonTraffic):
    """Steady arrivals whose sizes are pinned to the heaviest class.

    Every request is a maximal ``large`` job — the tenant that always
    submits the work most likely to straggle and hold slots.
    """

    job_class, size_mb = JOB_CLASSES[-1][0], JOB_CLASSES[-1][2]

    def __init__(self, name: str, tenants, rng, tenant: str,
                 rate_per_s: float = 0.02):
        super().__init__(name, tenants, rng, rate_per_s)
        self.tenant = _registered(tenant, tenants)


class BatchSpamTraffic(PoissonTraffic):
    """Noisy neighbor: a dense Poisson train of minimal ``small`` jobs."""

    job_class, size_mb = JOB_CLASSES[0][0], JOB_CLASSES[0][1]

    def __init__(self, name: str, tenants, rng, tenant: str,
                 rate_per_s: float = 0.5):
        super().__init__(name, tenants, rng, rate_per_s)
        self.tenant = _registered(tenant, tenants)


def make_adversary_traffic(spec: AdversarySpec, tenants, rng,
                           name: Optional[str] = None) -> ArrivalProcess:
    """Build the arrival process for an :class:`AdversarySpec`."""
    spec.validate()
    label = name or f"adv-{spec.kind}"
    if spec.kind == "hotkey":
        return HotKeyFloodTraffic(label, tenants, rng, spec.tenant,
                                  burst_rate=0.5 * spec.intensity + 0.5)
    if spec.kind == "skew":
        return StragglerSkewTraffic(label, tenants, rng, spec.tenant,
                                    rate_per_s=0.01 * spec.intensity)
    return BatchSpamTraffic(label, tenants, rng, spec.tenant,
                            rate_per_s=0.25 * spec.intensity)
