"""ChaosInjector: executes a :class:`~repro.chaos.plan.FaultPlan`.

The injector is a simulation process scheduled alongside the workload: it
sleeps to each fault's time, injects it, and (for faults with a duration)
spawns the matching heal/rejoin process.  Starting the injector also arms
the cluster's recovery machinery (:meth:`arm_recovery`), so every injected
failure is *detected and repaired by the platform itself* — no manual
``repair_cluster`` calls.

Every action is appended to a :class:`ChaosReport` timeline whose
:meth:`~ChaosReport.digest` is deterministic for a fixed seed + plan; the
CI smoke job asserts two same-seed runs agree on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.chaos.plan import Fault, FaultPlan
from repro.digest import Digest
from repro.errors import ConfigError
from repro.platform.faults import crash_worker, rejoin_worker
from repro.sim.kernel import Event
from repro.telemetry import events as EV
from repro.virt.vm import VMState

if TYPE_CHECKING:  # pragma: no cover
    from repro.platform.cluster import HadoopVirtualCluster

#: Effective bandwidth divisor modelling a network partition: traffic
#: through the host stalls (but flows stay well-defined — capacities
#: must remain > 0).
_PARTITION_FACTOR = 1e9


@dataclass
class ChaosReport:
    """Timeline of everything the injector did."""

    plan_name: str
    plan_digest: str
    #: (time, action, target) triples in execution order.
    timeline: list[tuple[float, str, str]] = field(default_factory=list)
    started_at: float = 0.0
    finished_at: float = 0.0

    def record(self, t: float, action: str, target: str) -> None:
        self.timeline.append((t, action, target))

    def digest(self) -> str:
        """Deterministic hash of the executed timeline."""
        h = Digest()
        h.update(self.plan_digest)
        for t, action, target in self.timeline:
            h.update(f"\n{t:.6f}|{action}|{target}")
        return h.hex()


class ChaosInjector:
    """Runs one fault plan against one cluster."""

    def __init__(self, cluster: "HadoopVirtualCluster", plan: FaultPlan):
        plan.validate()
        self.cluster = cluster
        self.plan = plan
        self.sim = cluster.sim
        self.tracer = cluster.tracer
        self.report = ChaosReport(plan_name=plan.name,
                                  plan_digest=plan.digest())
        #: host name -> {resource: original capacity} for armed net faults.
        self._net_saved: dict[str, dict] = {}

    # -- public -----------------------------------------------------------
    def start(self) -> Event:
        """Arm recovery and launch the plan; event value is the report."""
        self.cluster.arm_recovery()
        return self.sim.process(self._run(),
                                name=f"chaos:{self.plan.name}")

    # -- plan execution ---------------------------------------------------
    def _run(self):
        # Re-validate at injection start: the fault list may have been
        # built (or grown) directly on ``plan.faults``, bypassing the
        # validation in ``add()`` and the one at construction time.
        self.plan.validate()
        self.report.started_at = self.sim.now
        self.tracer.emit(self.sim.now, EV.CHAOS_PLAN_START, self.plan.name,
                         faults=len(self.plan), digest=self.plan.digest())
        for fault in self.plan.ordered():
            delay = fault.at - self.sim.now
            if delay > 0:
                yield self.sim.timeout(delay)
            self._inject(fault)
        self.report.finished_at = self.sim.now
        self.tracer.emit(self.sim.now, EV.CHAOS_PLAN_DONE, self.plan.name,
                         actions=len(self.report.timeline))
        return self.report

    def _inject(self, fault: Fault) -> None:
        handler = {
            "vm.crash": self._vm_crash,
            "host.crash": self._host_crash,
            "net.degrade": self._net_degrade,
            "net.partition": self._net_degrade,
            "disk.slow": self._disk_slow,
            "rejoin": self._rejoin,
        }[fault.kind]
        handler(fault)

    def _after(self, delay: float, fn, label: str) -> None:
        """Run ``fn`` after ``delay`` simulated seconds."""
        def proc():
            yield self.sim.timeout(delay)
            fn()
        self.sim.process(proc(), name=f"chaos:heal:{label}")

    def _worker(self, name: str):
        for vm in self.cluster.workers:
            if vm.name == name:
                return vm
        raise ConfigError(f"fault target {name!r} is not a worker of "
                          f"{self.cluster.name}")

    # -- handlers ---------------------------------------------------------
    def _vm_crash(self, fault: Fault) -> None:
        vm = self._worker(fault.target)
        if vm.state not in (VMState.RUNNING, VMState.MIGRATING):
            # Overlapping plans are legal: crashing a VM that is already
            # down changes nothing, so the whole fault — its heal
            # included — is a recorded no-op rather than an error.
            self.report.record(self.sim.now, "vm.crash.noop", vm.name)
            return
        crash_worker(self.cluster, vm)
        self.tracer.emit(self.sim.now, EV.CHAOS_VM_CRASH, vm.name,
                         rejoin_in=fault.duration or None)
        self.report.record(self.sim.now, "vm.crash", vm.name)
        if fault.duration > 0:
            self._after(fault.duration,
                        lambda: self._do_rejoin(vm.name), vm.name)

    def _host_crash(self, fault: Fault) -> None:
        victims = [vm for vm in self.cluster.workers
                   if vm.host is not None
                   and vm.host.name == fault.target
                   and vm.state in (VMState.RUNNING, VMState.MIGRATING)]
        if fault.target not in self.cluster.datacenter.fabric.hosts:
            raise ConfigError(
                f"fault target {fault.target!r} is not a host")
        if not victims:
            # Every worker on the host is already down (an earlier fault
            # got there first): nothing to crash, nothing to heal.
            self.report.record(self.sim.now, "host.crash.noop",
                               fault.target)
            return
        for vm in victims:
            crash_worker(self.cluster, vm)
        self.tracer.emit(self.sim.now, EV.CHAOS_HOST_CRASH, fault.target,
                         vms=[vm.name for vm in victims],
                         rejoin_in=fault.duration or None)
        self.report.record(self.sim.now, "host.crash", fault.target)
        if fault.duration > 0:
            names = [vm.name for vm in victims]
            self._after(fault.duration,
                        lambda: [self._do_rejoin(n) for n in names],
                        fault.target)

    def _do_rejoin(self, vm_name: str) -> None:
        vm = self._worker(vm_name)
        if vm.state is not VMState.FAILED:
            return  # already rejoined (overlapping plans)
        rejoin_worker(self.cluster, vm)
        self.tracer.emit(self.sim.now, EV.CHAOS_REJOIN, vm.name)
        self.report.record(self.sim.now, "rejoin", vm.name)

    def _rejoin(self, fault: Fault) -> None:
        self._do_rejoin(fault.target)

    def _net_degrade(self, fault: Fault) -> None:
        fabric = self.cluster.datacenter.fabric
        try:
            host = fabric.hosts[fault.target]
        except KeyError:
            raise ConfigError(
                f"fault target {fault.target!r} is not a host") from None
        factor = (_PARTITION_FACTOR if fault.kind == "net.partition"
                  else fault.factor)
        fss = self.cluster.datacenter.fss
        saved = self._net_saved.setdefault(fault.target, {})
        for res in (host.nic, host.bridge):
            saved.setdefault(res, res.capacity)
            fss.set_capacity(res, saved[res] / factor)
        self.tracer.emit(self.sim.now, EV.CHAOS_NET_DEGRADE, fault.target,
                         factor=factor,
                         partition=fault.kind == "net.partition")
        self.report.record(self.sim.now, fault.kind, fault.target)
        if fault.duration > 0:
            self._after(fault.duration,
                        lambda: self._net_heal(fault.target), fault.target)

    def _net_heal(self, host_name: str) -> None:
        saved = self._net_saved.pop(host_name, None)
        if not saved:
            return
        fss = self.cluster.datacenter.fss
        for res, capacity in saved.items():
            fss.set_capacity(res, capacity)
        self.tracer.emit(self.sim.now, EV.CHAOS_NET_HEAL, host_name)
        self.report.record(self.sim.now, "net.heal", host_name)

    def _disk_slow(self, fault: Fault) -> None:
        vm = self._worker(fault.target)
        vm.disk_slowdown = fault.factor
        self.tracer.emit(self.sim.now, EV.CHAOS_DISK_SLOW, vm.name,
                         factor=fault.factor)
        self.report.record(self.sim.now, "disk.slow", vm.name)
        if fault.duration > 0:
            self._after(fault.duration,
                        lambda: self._disk_heal(vm), vm.name)

    def _disk_heal(self, vm) -> None:
        if vm.disk_slowdown == 1.0:
            return  # already healed (e.g. by a crash+rejoin)
        vm.disk_slowdown = 1.0
        self.tracer.emit(self.sim.now, EV.CHAOS_DISK_HEAL, vm.name)
        self.report.record(self.sim.now, "disk.heal", vm.name)
