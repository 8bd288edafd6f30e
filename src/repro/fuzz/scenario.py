"""Scenarios: the fuzzer's deterministic unit of work.

A :class:`Scenario` is pure data — workload mix, tenant pools, adversarial
actors, a symbolic fault schedule, a cluster topology, and a config-knob
sample — fully determined by one integer seed.  It serializes to JSON and
back without loss, carries a content :meth:`~Scenario.digest`, and is what
the shrinker minimizes and the regression corpus replays.

Fault targets are *symbolic* (``("worker", i)`` / ``("host", j)``), not VM
names: the runner resolves them against the provisioned cluster, so a
shrunk scenario stays valid as the topology shrinks with it.

The :class:`ScenarioGenerator` samples every dimension from one named RNG
stream per seed.  It is survivable-by-construction: generated fault
schedules never destroy the last replica of a block or stall the cluster
forever (permanent crashes are bounded by the replication factor and the
worker count; degradations always heal).  Anything the platform still gets
wrong under such a schedule is a platform bug — which is the point.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from repro.chaos.plan import FAULT_KINDS
from repro.cloud.adversaries import ADVERSARY_KINDS, AdversarySpec
from repro.config import HadoopConfig
from repro.digest import digest
from repro.errors import ConfigError

#: Serialization format version (bump on incompatible change).
FORMAT_VERSION = 1

#: Workload kinds the generator mixes.
JOB_KINDS = ("wordcount", "terasort", "kmeans")

#: Scheduler policies sampled as a config knob.
POLICIES = ("fifo", "fair", "capacity")

#: Cluster layouts sampled as a topology knob.
LAYOUTS = ("packed", "spread")


@dataclass(frozen=True)
class FuzzJob:
    """One workload in the mix."""

    kind: str                  # one of JOB_KINDS
    size_mb: int               # simulated input volume
    n_reduces: int
    pool: str = "default"     # tenant pool (scheduler dimension)

    def validate(self) -> None:
        if self.kind not in JOB_KINDS:
            raise ConfigError(f"unknown job kind {self.kind!r}")
        if self.size_mb < 1:
            raise ConfigError("job size_mb must be >= 1")
        if not 0 <= self.n_reduces <= 16:
            raise ConfigError("n_reduces must be in 0..16")
        if not self.pool:
            raise ConfigError("job needs a pool")

    def key(self) -> str:
        return f"{self.kind}|{self.size_mb}|{self.n_reduces}|{self.pool}"


@dataclass(frozen=True)
class FuzzFault:
    """A symbolically-targeted fault (resolved against the cluster)."""

    at: float
    kind: str                  # one of chaos FAULT_KINDS
    scope: str                 # "worker" | "host"
    index: int                 # worker index / host index
    duration: float = 0.0
    factor: float = 2.0

    def validate(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigError(f"unknown fault kind {self.kind!r}")
        if self.scope not in ("worker", "host"):
            raise ConfigError(f"unknown fault scope {self.scope!r}")
        if self.index < 0:
            raise ConfigError("fault index must be >= 0")
        for name in ("at", "duration", "factor"):
            value = getattr(self, name)
            if not np.isfinite(value):
                raise ConfigError(f"fault {name} must be finite")
        if self.at < 0 or self.duration < 0:
            raise ConfigError("fault times must be >= 0")

    def key(self) -> str:
        return (f"{self.at:.6f}|{self.kind}|{self.scope}|{self.index}"
                f"|{self.duration:.6f}|{self.factor:.6f}")


@dataclass(frozen=True)
class KnobSample:
    """One point in the config-knob space (ALOJA-style dimension)."""

    map_slots: int = 2
    reduce_slots: int = 2
    dfs_replication: int = 2
    policy: str = "fifo"
    speculation: bool = False
    use_combiner: bool = False

    def validate(self) -> None:
        if not 1 <= self.map_slots <= 8 or not 1 <= self.reduce_slots <= 8:
            raise ConfigError("slot knobs must be in 1..8")
        if not 1 <= self.dfs_replication <= 4:
            raise ConfigError("dfs_replication knob must be in 1..4")
        if self.policy not in POLICIES:
            raise ConfigError(f"unknown policy {self.policy!r}")

    def hadoop_config(self) -> HadoopConfig:
        return HadoopConfig(
            map_tasks_maximum=self.map_slots,
            reduce_tasks_maximum=self.reduce_slots,
            dfs_replication=self.dfs_replication,
            speculative_execution=self.speculation,
            use_combiner=self.use_combiner)

    def key(self) -> str:
        return (f"{self.map_slots}|{self.reduce_slots}"
                f"|{self.dfs_replication}|{self.policy}"
                f"|{int(self.speculation)}|{int(self.use_combiner)}")


@dataclass(frozen=True)
class Scenario:
    """Everything one fuzz run needs, as replayable data."""

    seed: int
    racks: int
    hosts_per_rack: int
    vms_per_host: int
    n_vms: int
    layout: str = "packed"
    knobs: KnobSample = field(default_factory=KnobSample)
    jobs: tuple[FuzzJob, ...] = ()
    adversaries: tuple[AdversarySpec, ...] = ()
    faults: tuple[FuzzFault, ...] = ()

    # -- validation --------------------------------------------------------
    def validate(self) -> None:
        if self.racks < 1 or self.hosts_per_rack < 1 or self.vms_per_host < 1:
            raise ConfigError("topology dimensions must be >= 1")
        if self.n_vms < 3:
            raise ConfigError("a scenario needs >= 3 VMs "
                              "(master + 2 workers)")
        if self.n_vms > self.racks * self.hosts_per_rack * self.vms_per_host:
            raise ConfigError("n_vms exceeds the topology capacity")
        if self.layout not in LAYOUTS:
            raise ConfigError(f"unknown layout {self.layout!r}")
        if not self.jobs:
            raise ConfigError("a scenario needs at least one job")
        self.knobs.validate()
        for job in self.jobs:
            job.validate()
        for adversary in self.adversaries:
            adversary.validate()
        n_workers = self.n_vms - 1
        for fault in self.faults:
            fault.validate()
            if fault.scope == "worker" and fault.index >= n_workers:
                raise ConfigError(
                    f"fault targets worker {fault.index} but the scenario "
                    f"has {n_workers} workers")
            if fault.scope == "host" and fault.index >= self.n_hosts:
                raise ConfigError(
                    f"fault targets host {fault.index} but the scenario "
                    f"has {self.n_hosts} hosts")

    @property
    def n_hosts(self) -> int:
        return self.racks * self.hosts_per_rack

    @property
    def n_workers(self) -> int:
        return self.n_vms - 1

    # -- content addressing ------------------------------------------------
    def digest(self) -> str:
        """Deterministic content hash (16 hex chars).

        Every field feeds the hash through a length-prefixed canonical
        JSON encoding, so no crafted string can collide across field
        boundaries.
        """
        return digest(json.dumps(self.to_dict(), sort_keys=True,
                                 separators=(",", ":")))

    # -- serialization -----------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "format": FORMAT_VERSION,
            "seed": self.seed,
            "topology": {"racks": self.racks,
                         "hosts_per_rack": self.hosts_per_rack,
                         "vms_per_host": self.vms_per_host},
            "n_vms": self.n_vms,
            "layout": self.layout,
            "knobs": {"map_slots": self.knobs.map_slots,
                      "reduce_slots": self.knobs.reduce_slots,
                      "dfs_replication": self.knobs.dfs_replication,
                      "policy": self.knobs.policy,
                      "speculation": self.knobs.speculation,
                      "use_combiner": self.knobs.use_combiner},
            "jobs": [{"kind": j.kind, "size_mb": j.size_mb,
                      "n_reduces": j.n_reduces, "pool": j.pool}
                     for j in self.jobs],
            "adversaries": [{"kind": a.kind, "intensity": a.intensity,
                             "tenant": a.tenant}
                            for a in self.adversaries],
            "faults": [{"at": f.at, "kind": f.kind, "scope": f.scope,
                        "index": f.index, "duration": f.duration,
                        "factor": f.factor}
                       for f in self.faults],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        """Parse :meth:`to_dict` output; a missing or malformed field
        raises :class:`ConfigError` naming it."""
        if not isinstance(data, dict):
            raise ConfigError(f"a scenario must be a JSON object, got "
                              f"{type(data).__name__}")
        if data.get("format") != FORMAT_VERSION:
            raise ConfigError(
                f"unsupported scenario format {data.get('format')!r} "
                f"(this build reads format {FORMAT_VERSION})")
        topo = _get(data, "topology")
        knobs = _get(data, "knobs")
        scenario = cls(
            seed=_field(data, "seed", int),
            racks=_field(topo, "racks", int, "topology"),
            hosts_per_rack=_field(topo, "hosts_per_rack", int, "topology"),
            vms_per_host=_field(topo, "vms_per_host", int, "topology"),
            n_vms=_field(data, "n_vms", int),
            layout=_field(data, "layout", str),
            knobs=KnobSample(
                map_slots=_field(knobs, "map_slots", int, "knobs"),
                reduce_slots=_field(knobs, "reduce_slots", int, "knobs"),
                dfs_replication=_field(knobs, "dfs_replication", int,
                                       "knobs"),
                policy=_field(knobs, "policy", str, "knobs"),
                speculation=_field(knobs, "speculation", bool, "knobs"),
                use_combiner=_field(knobs, "use_combiner", bool, "knobs")),
            jobs=tuple(FuzzJob(kind=_field(j, "kind", str, at),
                               size_mb=_field(j, "size_mb", int, at),
                               n_reduces=_field(j, "n_reduces", int, at),
                               pool=_field(j, "pool", str, at))
                       for at, j in _items(data, "jobs")),
            adversaries=tuple(
                AdversarySpec(kind=_field(a, "kind", str, at),
                              intensity=_field(a, "intensity", int, at),
                              tenant=_field(a, "tenant", str, at))
                for at, a in _items(data, "adversaries")),
            faults=tuple(FuzzFault(at=_field(f, "at", float, at),
                                   kind=_field(f, "kind", str, at),
                                   scope=_field(f, "scope", str, at),
                                   index=_field(f, "index", int, at),
                                   duration=_field(f, "duration", float, at),
                                   factor=_field(f, "factor", float, at))
                         for at, f in _items(data, "faults")),
        )
        scenario.validate()
        return scenario

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def without(self, **kwargs) -> "Scenario":
        """A shrunk copy with fields replaced (shrinker primitive)."""
        return replace(self, **kwargs)


def _get(obj, key: str, where: str = ""):
    """``obj[key]`` of a parsed scenario; ``where`` is ``obj``'s path."""
    if not isinstance(obj, dict):
        raise ConfigError(f"scenario field {where!r} must be an object, "
                          f"got {type(obj).__name__}")
    if key not in obj:
        name = f"{where}.{key}" if where else key
        raise ConfigError(f"scenario field {name!r} is missing")
    return obj[key]


def _field(obj, key: str, kind: type, where: str = ""):
    """``kind(obj[key])``, or a :class:`ConfigError` naming the field."""
    value = _get(obj, key, where)
    try:
        return kind(value)
    except (TypeError, ValueError):
        name = f"{where}.{key}" if where else key
        raise ConfigError(f"scenario field {name!r} is not a valid "
                          f"{kind.__name__}: {value!r}") from None


def _items(data: dict, key: str) -> list[tuple[str, object]]:
    """``(path, item)`` of each entry of a top-level list field."""
    value = _get(data, key)
    if not isinstance(value, list):
        raise ConfigError(f"scenario field {key!r} must be a list, got "
                          f"{type(value).__name__}")
    return [(f"{key}[{i}]", item) for i, item in enumerate(value)]


def corpus_digest(scenarios: Sequence[Scenario]) -> str:
    """Digest of a whole scenario corpus (pinned by the CI smoke job)."""
    return digest("".join(f"{s.digest()}\n" for s in scenarios))


class ScenarioGenerator:
    """Seeded sampler over the full scenario cross-product."""

    #: Window (simulated seconds) faults are scheduled into.  Scenario
    #: jobs on the generated cluster shapes run for minutes of simulated
    #: time, so the window keeps injections inside the busy phase.
    FAULT_WINDOW_S = 60.0
    #: Settle time demanded between crash outages so re-replication can
    #: restore the replicas a cold-disk rejoin lost.
    CRASH_MARGIN_S = 30.0

    def __init__(self, seed: int):
        self.seed = int(seed)
        self.rng = np.random.default_rng(
            np.random.SeedSequence([0x5CE11A12, self.seed]))

    # -- small draw helpers ------------------------------------------------
    def _int(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi]."""
        return int(self.rng.integers(lo, hi + 1))

    def _choice(self, options: Sequence) -> object:
        return options[self._int(0, len(options) - 1)]

    def _bool(self, p_true: float = 0.5) -> bool:
        return float(self.rng.uniform(0.0, 1.0)) < p_true

    def _outage_end(self, at: float, duration: float,
                    outages: Sequence[Sequence[float]]) -> Optional[float]:
        """End of a crash outage starting at ``at``; None if it overlaps
        an existing one (permanent crashes never end: duration 0 → inf)."""
        end = (float("inf") if duration == 0.0
               else at + duration + self.CRASH_MARGIN_S)
        for start, stop in outages:
            if at < stop and start < end:
                return None
        return end

    # -- generation --------------------------------------------------------
    def generate(self) -> Scenario:
        racks = self._int(1, 4)
        hosts_per_rack = self._int(1, 3)
        vms_per_host = self._int(2, 4)
        capacity = racks * hosts_per_rack * vms_per_host
        n_vms = self._int(3, min(capacity, 9)) if capacity >= 3 else 3
        if capacity < 3:  # 1x1x2 can't host master + 2 workers
            vms_per_host, n_vms = 3, 3
        layout = str(self._choice(LAYOUTS))

        knobs = KnobSample(
            map_slots=self._int(1, 3),
            reduce_slots=self._int(1, 2),
            dfs_replication=min(self._int(1, 3), n_vms - 1),
            policy=str(self._choice(POLICIES)),
            speculation=self._bool(0.3),
            use_combiner=self._bool(0.3))

        jobs = tuple(self._generate_job(i) for i in range(self._int(1, 3)))
        adversaries = tuple(
            AdversarySpec(kind=str(self._choice(ADVERSARY_KINDS)),
                          intensity=self._int(1, 3),
                          tenant=f"adv-{i}")
            for i in range(self._int(0, 2) if self._bool(0.5) else 0))
        faults = self._generate_faults(n_vms, racks * hosts_per_rack,
                                       vms_per_host, layout,
                                       knobs.dfs_replication)
        scenario = Scenario(
            seed=self.seed, racks=racks, hosts_per_rack=hosts_per_rack,
            vms_per_host=vms_per_host, n_vms=n_vms, layout=layout,
            knobs=knobs, jobs=jobs, adversaries=adversaries, faults=faults)
        scenario.validate()
        return scenario

    def _generate_job(self, _index: int) -> FuzzJob:
        kind = str(self._choice(JOB_KINDS))
        return FuzzJob(
            kind=kind,
            size_mb=self._int(4, 24),
            n_reduces=self._int(1, 4),
            pool=str(self._choice(("default", "tenant-a", "tenant-b"))))

    def _generate_faults(self, n_vms: int, n_hosts: int,
                         vms_per_host: int, layout: str,
                         replication: int) -> tuple[FuzzFault, ...]:
        """Sample a survivable fault schedule over all six kinds.

        Survivability rules (anything beyond them is a *generator* bug,
        not a platform bug):

        * crash faults only when ``replication >= 2`` — losing the sole
          replica of a block is unrecoverable by design;
        * host crashes only when the workers span at least two hosts —
          off-host replica placement is what makes a correlated kill
          survivable, and a packed small cluster has no "off-host";
        * crash outages never overlap: each crash starts only after the
          previous one has healed *and* re-replication had
          :data:`CRASH_MARGIN_S` to restore the lost replicas (crashed
          VMs rejoin with cold disks);
        * at most one *permanent* crash, and the set of simultaneously
          crashed workers always leaves ``max(2, replication)`` workers
          alive;
        * degradations (net/disk) always heal within the window.
        """
        n_workers = n_vms - 1
        faults: list[FuzzFault] = []
        n_faults = self._int(0, 5)
        permanent_used = False
        crashed_workers: set[int] = set()
        window = self.FAULT_WINDOW_S
        min_alive = max(2, replication)
        # Do the workers span >= 2 hosts?  Packed placement fills host 0
        # first; spread round-robins, so any 2-host topology spans.
        multi_host = n_hosts >= 2 and (
            n_vms > vms_per_host if layout == "packed" else True)
        #: [start, end) intervals during which some crash outage is live
        #: (end includes the re-replication margin; inf = permanent).
        outages: list[list[float]] = []
        permanent_outage: Optional[list[float]] = None
        for _ in range(n_faults):
            kind = str(self._choice(FAULT_KINDS))
            at = round(float(self.rng.uniform(1.0, window)), 3)
            if kind in ("vm.crash", "host.crash"):
                if replication < 2:
                    continue  # unsurvivable with a single replica
                if kind == "host.crash":
                    if not multi_host:
                        continue  # would take out every replica holder
                    # Host crashes always rejoin: a correlated kill that
                    # never returns usually takes half the cluster.
                    index = self._int(0, n_hosts - 1)
                    duration = round(float(self.rng.uniform(10.0, 40.0)), 3)
                    end = self._outage_end(at, duration, outages)
                    if end is None:
                        continue  # overlaps an earlier crash outage
                    outages.append([at, end])
                    faults.append(FuzzFault(
                        at=at, kind=kind, scope="host", index=index,
                        duration=duration))
                    continue
                index = self._int(0, n_workers - 1)
                if index in crashed_workers:
                    continue
                if len(crashed_workers) + 1 > n_workers - min_alive:
                    continue  # would leave too few live workers
                permanent = (not permanent_used) and self._bool(0.25)
                duration = 0.0 if permanent else round(
                    float(self.rng.uniform(8.0, 45.0)), 3)
                end = self._outage_end(at, duration, outages)
                if end is None:
                    continue  # overlaps an earlier crash outage
                outage = [at, end]
                outages.append(outage)
                if permanent:
                    permanent_used = True
                    permanent_outage = outage
                crashed_workers.add(index)
                faults.append(FuzzFault(at=at, kind=kind, scope="worker",
                                        index=index, duration=duration))
            elif kind == "rejoin":
                # Explicit rejoin of an earlier permanent crash victim.
                targets = [f for f in faults
                           if f.kind == "vm.crash" and f.duration == 0.0]
                if not targets:
                    continue
                crash = targets[-1]
                rejoin_at = round(
                    crash.at + float(self.rng.uniform(5.0, 30.0)), 3)
                faults.append(FuzzFault(
                    at=rejoin_at, kind="rejoin", scope="worker",
                    index=crash.index))
                crashed_workers.discard(crash.index)
                permanent_used = False
                if permanent_outage is not None:
                    # The explicit rejoin ends the permanent outage.
                    permanent_outage[1] = rejoin_at + self.CRASH_MARGIN_S
                    permanent_outage = None
            elif kind in ("net.degrade", "net.partition"):
                faults.append(FuzzFault(
                    at=at, kind=kind, scope="host",
                    index=self._int(0, n_hosts - 1),
                    duration=round(float(self.rng.uniform(5.0, 30.0)), 3),
                    factor=round(float(self.rng.uniform(2.0, 8.0)), 3)))
            else:  # disk.slow
                faults.append(FuzzFault(
                    at=at, kind="disk.slow", scope="worker",
                    index=self._int(0, n_workers - 1),
                    duration=round(float(self.rng.uniform(5.0, 30.0)), 3),
                    factor=round(float(self.rng.uniform(2.0, 6.0)), 3)))
        return tuple(faults)


def generate_scenario(seed: int) -> Scenario:
    """One-shot convenience: the scenario for ``seed``."""
    return ScenarioGenerator(seed).generate()


def generate_scenarios(seeds: Sequence[int]) -> list[Scenario]:
    """The scenario corpus for a seed range."""
    return [generate_scenario(seed) for seed in seeds]
