"""Virt-LM: the live-migration benchmark, extended to virtual clusters.

The paper extends the authors' earlier Virt-LM benchmark (Huang et al.,
ICPE'11) "from single virtual machine migration to multiple virtual
machines (virtual cluster) migration which can record the migration time
and downtime of each virtual machine and the whole virtual cluster."

:class:`VirtLM` does exactly that: it migrates each VM of a cluster from
its host to a destination one after another (``xm migrate`` one at a
time — the mode the paper's figures imply: 16 consecutive bars), and
reports per-VM :class:`~repro.virt.migration.MigrationRecord` entries plus
the whole-cluster aggregate of Table II.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.errors import MigrationError
from repro.sim import Simulator, Tracer
from repro.sim.kernel import Event
from repro.virt.machine import PhysicalMachine
from repro.telemetry import events as EV
from repro.virt.migration import LiveMigrator, MigrationRecord
from repro.virt.vm import VirtualMachine


@dataclass
class ClusterMigrationReport:
    """Aggregate of one whole-cluster migration (the paper's Table II row)."""

    label: str
    records: list[MigrationRecord] = field(default_factory=list)
    #: Wall-clock from first migration start to last migration end.
    overall_migration_time_s: float = 0.0

    @property
    def overall_downtime_s(self) -> float:
        """Sum of per-VM downtimes (total service outage across the cluster)."""
        return sum(r.downtime_s for r in self.records)

    @property
    def max_downtime_s(self) -> float:
        return max((r.downtime_s for r in self.records), default=0.0)

    @property
    def migration_times(self) -> list[float]:
        return [r.migration_time_s for r in self.records]

    @property
    def downtimes(self) -> list[float]:
        return [r.downtime_s for r in self.records]

    def downtime_spread(self) -> float:
        """Max/min downtime ratio — the paper's 'varies widely' observation."""
        downs = [d for d in self.downtimes if d > 0]
        if not downs:
            return 1.0
        return max(downs) / min(downs)


class VirtLM:
    """Benchmark harness around :class:`LiveMigrator`."""

    def __init__(self, migrator: LiveMigrator, tracer: Optional[Tracer] = None):
        self.migrator = migrator
        self.sim: Simulator = migrator.sim
        self.tracer = tracer or migrator.tracer

    def migrate_cluster(self, vms: Sequence[VirtualMachine],
                        destination: PhysicalMachine, label: str = "cluster",
                        rate_cap_bps: Optional[float] = None) -> Event:
        """Whole-cluster benchmark, one VM after another as the paper
        does; event value is a :class:`ClusterMigrationReport`."""
        if not vms:
            raise MigrationError("migrate_cluster needs at least one VM")
        return self.sim.process(
            self._sequential_proc(list(vms), destination, label,
                                  rate_cap_bps),
            name=f"virtlm:{label}")

    def _sequential_proc(self, vms: list[VirtualMachine],
                         destination: PhysicalMachine, label: str,
                         rate_cap_bps: Optional[float] = None):
        report = ClusterMigrationReport(label=label)
        started = self.sim.now
        for vm in vms:
            record = yield self.migrator.migrate(vm, destination,
                                                 rate_cap_bps=rate_cap_bps)
            report.records.append(record)
        report.overall_migration_time_s = self.sim.now - started
        self.tracer.emit(self.sim.now, EV.VIRTLM_CLUSTER_END, label,
                         mode="sequential",
                         overall_time=report.overall_migration_time_s,
                         overall_downtime=report.overall_downtime_s)
        return report
