"""Xen-style iterative pre-copy live migration.

Algorithm (Clark et al., NSDI'05, as implemented by ``xm migrate --live``):

1. **Setup** — reserve resources on the destination, open the migration
   TCP stream between the two Domain-0s.
2. **Iterative pre-copy** — round 0 pushes all guest memory while the guest
   keeps running; round *i+1* re-sends the pages dirtied during round *i*.
   Rounds shrink geometrically while the dirty rate stays below the copy
   bandwidth.
3. **Stop-and-copy** — when the remaining dirty set is small enough (or the
   round budget is exhausted, or pre-copy stops converging), the guest is
   paused, the residue is pushed, and the VM resumes on the destination.
   The service outage — the paper's *downtime* — is the duration of this
   phase plus the fixed resume overhead (device re-attach, gratuitous ARP).

The copy stream is a fluid flow over ``src.dom0 → dst.dom0``, so it crosses
both physical NICs and contends with whatever the Hadoop cluster is doing —
which is why migrating a cluster that is running Wordcount takes about three
times as long as migrating an idle one (Table II of the paper).

Migrating to the VM's current host is rejected; migrating a stopped VM is
rejected.  The per-round dirtied volume is sampled from the VM's
:class:`~repro.virt.memory.DirtyMemoryModel` using the VM's *current*
activity, so downtime varies across the nodes of a loaded cluster.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro import constants as C
from repro.errors import MigrationError
from repro.net import NetworkFabric
from repro.sim import FairShareSystem, Simulator, Tracer
from repro.sim.kernel import Event
from repro.telemetry import events as EV
from repro.virt.machine import PhysicalMachine
from repro.virt.vm import VirtualMachine, VMState


@dataclass(frozen=True)
class MigrationRound:
    """One pre-copy round."""

    index: int
    sent_bytes: float
    elapsed_s: float
    dirtied_bytes: float


@dataclass
class MigrationRecord:
    """Everything measured about one VM migration (Virt-LM's unit record)."""

    vm: str
    source: str
    destination: str
    memory_bytes: int
    started_at: float
    #: Total wall-clock migration time (setup + pre-copy + stop-and-copy).
    migration_time_s: float = 0.0
    #: Service outage: stop-and-copy transfer + resume overhead.
    downtime_s: float = 0.0
    total_sent_bytes: float = 0.0
    rounds: list[MigrationRound] = field(default_factory=list)
    #: Why pre-copy ended: "converged", "round-budget", "send-budget".
    stop_reason: str = ""

    @property
    def n_rounds(self) -> int:
        return len(self.rounds)

    @property
    def overhead_ratio(self) -> float:
        """Bytes sent relative to guest memory (1.0 = no re-sends)."""
        return self.total_sent_bytes / self.memory_bytes


class LiveMigrator:
    """Pre-copy migration engine shared by all hosts."""

    def __init__(self, sim: Simulator, fss: FairShareSystem,
                 fabric: NetworkFabric, tracer: Optional[Tracer] = None,
                 metrics=None):
        self.sim = sim
        self.fss = fss
        self.fabric = fabric
        self.tracer = tracer or Tracer(enabled=False)
        self.metrics = metrics

    def migrate(self, vm: VirtualMachine,
                destination: PhysicalMachine) -> Event:
        """Live-migrate ``vm``; the event's value is its
        :class:`MigrationRecord`."""
        if vm.state is not VMState.RUNNING:
            raise MigrationError(f"{vm.name} is {vm.state.value}, not running")
        if vm.host is None:
            raise MigrationError(f"{vm.name} has no host")
        if vm.host is destination:
            raise MigrationError(f"{vm.name} is already on {destination.name}")
        if vm.config.memory > destination.dram_free:
            raise MigrationError(
                f"{destination.name} lacks DRAM for {vm.name}: "
                f"needs {vm.config.memory}, free {destination.dram_free}")
        # Reserve destination memory for the whole migration (Xen does).
        destination.reserve_dram(vm.config.memory, f"migrate:{vm.name}")
        return self.sim.process(
            self._migrate_proc(vm, destination),
            name=f"migrate:{vm.name}")

    # -- internals ------------------------------------------------------------
    def _copy(self, vm: VirtualMachine, destination: PhysicalMachine,
              nbytes: float, scan: bool = True):
        """Push ``nbytes`` over the dom0→dom0 stream; yields, returns secs.

        ``scan=True`` charges the per-round fixed cost (dirty-bitmap scan,
        shadow page-table flips, control RPCs).  This floor is what stops
        pre-copy from converging on a busy guest — the residue cannot shrink
        below ``dirty_rate * round_overhead``.  The stop-and-copy phase skips
        it: the guest is paused, there is nothing left to scan.
        """
        assert vm.host is not None
        t0 = self.sim.now
        if scan:
            yield self.sim.timeout(C.MIGRATION_ROUND_OVERHEAD_S)
        yield self.fabric.transfer(vm.host.dom0, destination.dom0, nbytes,
                                   name=f"migrate:{vm.name}")
        return self.sim.now - t0

    def _migrate_proc(self, vm: VirtualMachine,
                      destination: PhysicalMachine):
        source = vm.host
        assert source is not None
        record = MigrationRecord(
            vm=vm.name, source=source.name, destination=destination.name,
            memory_bytes=vm.config.memory, started_at=self.sim.now)
        span = self.tracer.begin_span(self.sim.now, EV.MIGRATION, vm.name,
                                      src=source.name, dst=destination.name)
        vm.state = VMState.MIGRATING
        try:
            yield self.sim.timeout(C.MIGRATION_SETUP_S)

            to_send = float(vm.config.memory)
            rounds = 0
            reason = "round-budget"
            while True:
                integral_start = vm.activity_integral()
                elapsed = yield from self._copy(vm, destination, to_send)
                mean_activity = ((vm.activity_integral() - integral_start)
                                 / elapsed) if elapsed > 0 else vm.activity
                record.total_sent_bytes += to_send
                dirtied = vm.memory_model.dirtied_during(elapsed,
                                                         mean_activity)
                record.rounds.append(MigrationRound(
                    index=rounds, sent_bytes=to_send, elapsed_s=elapsed,
                    dirtied_bytes=dirtied))
                self.tracer.emit(self.sim.now, EV.MIGRATION_ROUND, vm.name,
                                 index=rounds, sent=to_send, dirtied=dirtied)
                rounds += 1
                if dirtied <= C.MIGRATION_STOP_THRESHOLD:
                    reason = "converged"
                    to_send = dirtied
                    break
                if rounds >= C.MIGRATION_MAX_ROUNDS:
                    reason = "round-budget"
                    to_send = dirtied
                    break
                if record.total_sent_bytes + dirtied > \
                        C.MIGRATION_SEND_BUDGET_FACTOR * vm.config.memory:
                    # Xen's third stop rule: give up pre-copy once the
                    # total volume sent would exceed N x guest memory —
                    # the dirty rate is keeping pace with the wire.
                    reason = "send-budget"
                    to_send = dirtied
                    break
                to_send = dirtied

            record.stop_reason = reason
            # Stop-and-copy: the guest is paused; its activity no longer
            # dirties pages, but its traffic also stops competing only after
            # in-flight work drains — we keep it simple and leave other
            # cluster traffic running, which is the conservative choice.
            pause_started = self.sim.now
            elapsed = yield from self._copy(vm, destination, to_send,
                                            scan=False)
            record.total_sent_bytes += to_send
            yield self.sim.timeout(C.MIGRATION_RESUME_OVERHEAD_S)
            record.downtime_s = (self.sim.now - pause_started)

            # Swap the temporary hold for real residency.  No simulated time
            # passes between the release and the admit inside rehome, so the
            # slot cannot be stolen.
            destination.release_dram(vm.config.memory)
            vm.rehome(destination)
            vm.mark_running()
        except BaseException:
            # Failed migration: drop the destination hold, resume at source.
            destination.release_dram(vm.config.memory)
            vm.state = VMState.RUNNING
            raise

        record.migration_time_s = self.sim.now - record.started_at
        self.tracer.end_span(span, self.sim.now,
                             migration_time=record.migration_time_s,
                             downtime=record.downtime_s,
                             rounds=record.n_rounds,
                             reason=record.stop_reason)
        if self.metrics is not None:
            labels = {"src": record.source, "dst": record.destination}
            self.metrics.histogram(
                "migration.duration", "total live-migration time",
                labels).observe(record.migration_time_s)
            self.metrics.histogram(
                "migration.downtime", "stop-and-copy service outage",
                labels).observe(record.downtime_s)
            self.metrics.counter(
                "migration.bytes.sent", "pre-copy + stop-and-copy volume",
                labels).inc(record.total_sent_bytes)
            self.metrics.counter(
                "migration.count", "completed migrations", labels).inc()
        return record
