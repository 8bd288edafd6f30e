"""Declarative fault plans.

A :class:`FaultPlan` is a validated, ordered list of :class:`Fault`
injections executed by the :class:`~repro.chaos.injector.ChaosInjector`
while jobs run.  Plans are pure data: the same plan against the same
seeded platform produces the same trace, event for event — plans carry a
content :meth:`~FaultPlan.digest` so experiments can assert exactly that.

Fault kinds
-----------
``vm.crash``
    Crash one worker VM (``target`` = VM name).  With ``duration > 0``
    the worker rejoins that many seconds later with a cold disk.
``host.crash``
    Crash every cluster worker resident on one physical host (``target``
    = host name) — the correlated-failure case replication placement
    exists for.  ``duration`` rejoins the survivors' VMs when the host
    returns.
``net.degrade``
    Divide a host's NIC and bridge bandwidth by ``factor`` (``target`` =
    host name) for ``duration`` seconds (0 = until the plan ends).
``net.partition``
    Like ``net.degrade`` with an effectively infinite factor: traffic
    through the host stalls until the partition heals.
``disk.slow``
    Divide one VM's effective disk/NFS rate by ``factor`` — the classic
    gray-failure straggler.  Heals after ``duration``.
``rejoin``
    Explicitly rejoin a previously crashed worker VM.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.digest import Digest
from repro.errors import ConfigError

#: All fault kinds the injector understands.
FAULT_KINDS = (
    "vm.crash",
    "host.crash",
    "net.degrade",
    "net.partition",
    "disk.slow",
    "rejoin",
)

#: Kinds whose ``factor`` is meaningful (must be > 1).
_FACTOR_KINDS = ("net.degrade", "disk.slow")


@dataclass(frozen=True)
class Fault:
    """One scheduled fault injection."""

    at: float                 # injection time, simulated seconds
    kind: str                 # one of FAULT_KINDS
    target: str               # VM name or host name, depending on kind
    duration: float = 0.0     # seconds until heal/rejoin; 0 = permanent
    factor: float = 2.0       # degradation factor for net.degrade/disk.slow

    def validate(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigError(
                f"unknown fault kind {self.kind!r}; "
                f"expected one of {sorted(FAULT_KINDS)}")
        # Non-finite values must be rejected explicitly: NaN compares False
        # against every bound (so ``at < 0`` lets it through), then poisons
        # ordered()'s sort and key()'s fixed-width digest formatting.
        for name in ("at", "duration", "factor"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ConfigError(
                    f"fault {name} must be a number, got {value!r}")
            if not math.isfinite(value):
                raise ConfigError(f"fault {name} must be finite, got {value}")
        if self.at < 0:
            raise ConfigError(f"fault time must be >= 0, got {self.at}")
        if self.duration < 0:
            raise ConfigError(
                f"fault duration must be >= 0, got {self.duration}")
        if self.kind == "rejoin" and self.duration > 0:
            raise ConfigError(
                "rejoin is instantaneous (duration must be 0); schedule a "
                "later rejoin by giving the crash fault a duration instead")
        if not self.target:
            raise ConfigError(f"fault {self.kind!r} needs a target")
        if self.kind in _FACTOR_KINDS and self.factor <= 1.0:
            raise ConfigError(
                f"fault {self.kind!r} needs factor > 1, got {self.factor}")

    def key(self) -> str:
        """Canonical string form (feeds the plan digest)."""
        return (f"{self.at:.6f}|{self.kind}|{self.target}"
                f"|{self.duration:.6f}|{self.factor:.6f}")


@dataclass
class FaultPlan:
    """An ordered set of faults to inject into one cluster."""

    name: str = "chaos"
    faults: list[Fault] = field(default_factory=list)

    def add(self, fault: Fault) -> "FaultPlan":
        fault.validate()
        self.faults.append(fault)
        return self

    def validate(self) -> None:
        for fault in self.faults:
            fault.validate()

    def ordered(self) -> list[Fault]:
        """Faults in injection order (time, then declaration order)."""
        return [f for _, f in sorted(enumerate(self.faults),
                                     key=lambda pair: (pair[1].at, pair[0]))]

    @property
    def horizon(self) -> float:
        """Time of the last scheduled injection or heal."""
        return max((f.at + f.duration for f in self.faults), default=0.0)

    def digest(self) -> str:
        """Deterministic content hash of the plan.

        The name is length-prefixed so a crafted name embedding the
        ``\\n``/``|`` separators (e.g. ``"p\\n0.000000|vm.crash|..."``)
        cannot collide with a different plan whose faults spell out the
        same byte stream.
        """
        h = Digest()
        h.update(f"{len(self.name.encode())}:{self.name}")
        for fault in self.ordered():
            h.update(f"\n{fault.key()}")
        return h.hex()

    def __len__(self) -> int:
        return len(self.faults)
