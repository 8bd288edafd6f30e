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
  registry;
* a **payload builder** used by the fuzz runner to materialize the
  adversarial job itself (the records that make the job hostile).

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
from typing import Iterator, Optional

from repro.cloud.traffic import ArrivalProcess
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


# -- payload builders (fuzz runner side) ------------------------------------

def hot_key_lines(rng, n_lines: int, intensity: int = 1) -> list[str]:
    """A wordcount corpus where the word ``hotspot`` dominates.

    Intensity 1/2/3 makes ~50/70/90% of all tokens the hot word, so the
    reducer that owns it sees a single giant value list while its peers
    idle — the shuffle-side hot-partition attack.
    """
    fraction = {1: 0.5, 2: 0.7, 3: 0.9}[intensity]
    words_per_line = 12
    lines = []
    for _ in range(n_lines):
        tokens = []
        for _ in range(words_per_line):
            if float(rng.uniform(0.0, 1.0)) < fraction:
                tokens.append("hotspot")
            else:
                tokens.append(f"w{int(rng.integers(0, 512)):03d}")
        lines.append(" ".join(tokens))
    return lines


def skewed_keys(rng, n_records: int, n_reduces: int,
                intensity: int = 1) -> list[tuple[str, int]]:
    """Records whose keys hash-partition almost entirely into one bucket.

    Keys are rejection-sampled so ``hash(key) % n_reduces`` lands in
    partition 0 for the skewed share (60/80/95% by intensity) — the
    straggler-inducing partition-skew attack against any hash
    partitioner, independent of key distribution assumptions.
    """
    from repro.mapreduce.api import HashPartitioner
    partitioner = HashPartitioner()
    share = {1: 0.6, 2: 0.8, 3: 0.95}[intensity]
    records = []
    for i in range(n_records):
        want_hot = float(rng.uniform(0.0, 1.0)) < share
        for attempt in range(64):
            key = f"k{int(rng.integers(0, 1 << 30)):08x}"
            bucket = partitioner.partition(key, max(1, n_reduces))
            if (bucket == 0) == want_hot or n_reduces <= 1:
                break
        records.append((key, i))
    return records


def spam_job_count(intensity: int = 1) -> int:
    """How many tiny jobs the noisy neighbor floods in (per actor)."""
    return {1: 2, 2: 4, 3: 6}[intensity]


# -- arrival processes (service mode side) ----------------------------------

class _PinnedTenantProcess(ArrivalProcess):
    """Base for adversaries: every arrival comes from the actor's tenant."""

    def __init__(self, name: str, tenants, rng, tenant: str):
        super().__init__(name, tenants, rng)
        if tenant not in tenants.names:
            raise ConfigError(f"adversary tenant {tenant!r} is not in the "
                              "registry")
        self.tenant = tenant

    def _pick_tenant(self) -> str:
        return self.tenant


class HotKeyFloodTraffic(_PinnedTenantProcess):
    """Bursty single-tenant flood: quiet baseline, then dense bursts.

    Models a tenant that periodically hammers the service with
    correlated requests (every burst arrives back-to-back at
    ``burst_rate``), starving admission windows for everyone else.
    """

    #: One ``BURST_LEN_S`` burst every ``BURST_EVERY_S`` seconds.
    BURST_EVERY_S, BURST_LEN_S = 120.0, 10.0

    def __init__(self, name: str, tenants, rng, tenant: str,
                 burst_rate: float = 2.0):
        super().__init__(name, tenants, rng, tenant)
        if burst_rate <= 0:
            raise ConfigError("burst_rate must be positive")
        self.burst_rate = burst_rate

    def _times(self, horizon_s: float) -> Iterator[float]:
        t = 0.0
        while t < horizon_s:
            burst_start = t
            burst_end = min(burst_start + self.BURST_LEN_S, horizon_s)
            at = burst_start
            while at < burst_end:
                at += float(self.rng.exponential(1.0 / self.burst_rate))
                if at < burst_end:
                    yield at
            t = burst_start + self.BURST_EVERY_S


class StragglerSkewTraffic(_PinnedTenantProcess):
    """Steady arrivals whose sizes are pinned to the heaviest class.

    Every request is a maximal ``large`` job — the tenant that always
    submits the work most likely to straggle and hold slots.
    """

    def __init__(self, name: str, tenants, rng, tenant: str,
                 rate_per_s: float = 0.02):
        super().__init__(name, tenants, rng, tenant)
        if rate_per_s <= 0:
            raise ConfigError("rate_per_s must be positive")
        self.rate_per_s = rate_per_s

    def _pick_class(self) -> tuple[str, float]:
        from repro.cloud.traffic import JOB_CLASSES
        name, _lo, hi, _prob = JOB_CLASSES[-1]
        # Consume one draw so the stream stays aligned with the base
        # class and the trace digest is a pure function of the seed.
        self.rng.uniform(0.0, 1.0)
        return name, hi

    def _times(self, horizon_s: float) -> Iterator[float]:
        t = 0.0
        while True:
            t += float(self.rng.exponential(1.0 / self.rate_per_s))
            if t >= horizon_s:
                return
            yield t


class BatchSpamTraffic(_PinnedTenantProcess):
    """Noisy neighbor: a dense Poisson train of tiny batch jobs."""

    def __init__(self, name: str, tenants, rng, tenant: str,
                 rate_per_s: float = 0.5):
        super().__init__(name, tenants, rng, tenant)
        if rate_per_s <= 0:
            raise ConfigError("rate_per_s must be positive")
        self.rate_per_s = rate_per_s

    def _pick_class(self) -> tuple[str, float]:
        self.rng.uniform(0.0, 1.0)
        return "small", 16.0

    def _times(self, horizon_s: float) -> Iterator[float]:
        t = 0.0
        while True:
            t += float(self.rng.exponential(1.0 / self.rate_per_s))
            if t >= horizon_s:
                return
            yield t


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
