"""Tuning rules.

Each rule inspects a :class:`~repro.monitor.analyser.BottleneckReport` (and
the cluster) and may emit a :class:`Recommendation` — either a Hadoop
parameter change or a live-migration plan.  Rules are deliberately simple
threshold rules: the paper's Tuner is a closed-loop knob-turner, not an
optimizer.

Two rule families exist:

* **metric rules** (the originals) read nmon aggregates;
* **alert rules** (:class:`SpeculateOnStragglersRule`,
  :class:`MigrateOffHotHostRule`) are driven by the observatory's SLO
  alerts — the detection work already happened online, the rule only
  decides the knob.  Construct them with the
  :class:`~repro.observatory.core.Observatory` handle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, TYPE_CHECKING

from repro.monitor.analyser import BottleneckReport, NmonAnalyser

if TYPE_CHECKING:  # pragma: no cover
    from repro.observatory.core import Observatory
    from repro.platform.cluster import HadoopVirtualCluster

#: Mean VCPU utilisation above which a tracker loses a map slot.
SATURATED_CPU = 0.9
#: Mean VCPU utilisation below which a tracker gains a map slot.
IDLE_CPU = 0.35
#: Coefficient of variation of per-node CPU means that triggers a
#: load-balancing migration.
IMBALANCE = 0.6
#: Fresh straggler alerts that trigger the speculation rule.
MIN_STRAGGLER_ALERTS = 1
#: Factor the speculation rule lowers ``speculative_slowdown`` by, per
#: step, and the value it never goes below.
SLOWDOWN_RATCHET = 0.75
SLOWDOWN_FLOOR = 1.2


@dataclass(frozen=True)
class Recommendation:
    """One proposed adjustment."""

    rule: str
    kind: str                 # "reconfigure" | "migrate" | "none"
    reason: str
    #: for kind == "reconfigure": HadoopConfig.replace(**config_changes)
    config_changes: dict = field(default_factory=dict)
    #: for kind == "migrate": [(vm_name, destination_host_index)]
    migrations: tuple = ()


class TuningRule:
    """Base class: inspect and maybe recommend."""

    name = "abstract"

    def evaluate(self, cluster: "HadoopVirtualCluster",
                 analyser: NmonAnalyser, report: BottleneckReport
                 ) -> Optional[Recommendation]:
        raise NotImplementedError


class ReduceSlotsWhenSaturatedRule(TuningRule):
    """VCPUs pegged -> fewer concurrent tasks per tracker."""

    name = "reduce-slots-when-cpu-saturated"

    def evaluate(self, cluster, analyser, report):
        summaries = report.node_summaries
        if not summaries:
            return None
        mean_cpu = sum(s.cpu_mean for s in summaries) / len(summaries)
        slots = cluster.config.map_tasks_maximum
        if mean_cpu > SATURATED_CPU and slots > 1:
            return Recommendation(
                rule=self.name, kind="reconfigure",
                reason=f"mean VCPU utilization {mean_cpu:.2f} > "
                       f"{SATURATED_CPU}: lowering map slots",
                config_changes={"map_tasks_maximum": slots - 1})
        return None


class IncreaseSlotsWhenCpuIdleRule(TuningRule):
    """CPUs idle while tasks queue -> more concurrent tasks per tracker."""

    name = "increase-slots-when-cpu-idle"

    def __init__(self, max_slots: int = 4):
        self.max_slots = max_slots

    def evaluate(self, cluster, analyser, report):
        summaries = report.node_summaries
        if not summaries:
            return None
        mean_cpu = sum(s.cpu_mean for s in summaries) / len(summaries)
        slots = cluster.config.map_tasks_maximum
        if mean_cpu < IDLE_CPU and slots < self.max_slots:
            return Recommendation(
                rule=self.name, kind="reconfigure",
                reason=f"mean VCPU utilization {mean_cpu:.2f} < "
                       f"{IDLE_CPU}: raising map slots",
                config_changes={"map_tasks_maximum": slots + 1})
        return None


class ConsolidateCrossDomainRule(TuningRule):
    """Cross-domain cluster bottlenecked on NIC/netback -> migrate the
    minority half onto the majority host (undo the cross-domain split)."""

    name = "consolidate-cross-domain"

    def __init__(self, net_busy_threshold: float = 0.5):
        self.net_busy_threshold = net_busy_threshold

    def evaluate(self, cluster, analyser, report):
        if not cluster.cross_domain:
            return None
        busy_net = any(
            frac > self.net_busy_threshold
            for name, frac in report.busy_fractions.items()
            if ".nic" in name or ".netback" in name)
        if not busy_net:
            return None
        machines = cluster.datacenter.machines
        by_host: dict[str, list] = {}
        for vm in cluster.vms:
            by_host.setdefault(vm.host.name, []).append(vm)
        majority = max(by_host, key=lambda h: len(by_host[h]))
        target_index = next(i for i, m in enumerate(machines)
                            if m.name == majority)
        target = machines[target_index]
        movers = [vm for host, vms in by_host.items() if host != majority
                  for vm in vms]
        movable = []
        free = target.dram_free
        for vm in movers:
            if vm.config.memory <= free:
                movable.append((vm.name, target_index))
                free -= vm.config.memory
        if not movable:
            return None
        return Recommendation(
            rule=self.name, kind="migrate",
            reason=f"cross-domain cluster with hot NIC/netback: "
                   f"consolidating {len(movable)} VM(s) onto {majority}",
            migrations=tuple(movable))


class RebalanceByMigrationRule(TuningRule):
    """High per-node CPU imbalance -> migrate the hottest VM to the host
    with the most free DRAM (a different host)."""

    name = "rebalance-by-migration"

    def evaluate(self, cluster, analyser, report):
        imbalance = analyser.imbalance()
        if imbalance < IMBALANCE:
            return None
        summaries = sorted(report.node_summaries, key=lambda s: -s.cpu_mean)
        hottest = summaries[0]
        vm = next(v for v in cluster.vms if v.name == hottest.vm)
        machines = cluster.datacenter.machines
        candidates = [(i, m) for i, m in enumerate(machines)
                      if m is not vm.host and m.dram_free >= vm.config.memory]
        if not candidates:
            return None
        index, _machine = max(candidates, key=lambda im: im[1].dram_free)
        return Recommendation(
            rule=self.name, kind="migrate",
            reason=f"CPU imbalance {imbalance:.2f} >= "
                   f"{IMBALANCE}: migrating {vm.name}",
            migrations=((vm.name, index),))


class SpeculateOnStragglersRule(TuningRule):
    """Straggler alerts -> raise speculative-execution pressure.

    Each evaluation consumes the ``straggler-task`` alerts the
    observatory fired since the previous one (a cursor, so a post-job
    tuner step still sees that run's stragglers).  The first response is
    to switch speculative execution on; once on, the slowdown threshold
    is ratcheted down (×:data:`SLOWDOWN_RATCHET` per step, floored at
    :data:`SLOWDOWN_FLOOR`) so speculation triggers earlier on clusters
    that keep producing stragglers.
    """

    name = "speculate-on-stragglers"

    def __init__(self, observatory: "Observatory"):
        self.observatory = observatory
        self._cursor = 0

    def evaluate(self, cluster, analyser, report):
        alerts = self.observatory.alerts("straggler-task")
        fresh = alerts[self._cursor:]
        self._cursor = len(alerts)
        if len(fresh) < MIN_STRAGGLER_ALERTS:
            return None
        tasks = sorted({a.target for a in fresh})
        if not cluster.config.speculative_execution:
            return Recommendation(
                rule=self.name, kind="reconfigure",
                reason=f"{len(fresh)} straggler alert(s) "
                       f"({', '.join(tasks[:4])}): enabling speculative "
                       f"execution",
                config_changes={"speculative_execution": True})
        slowdown = cluster.config.speculative_slowdown
        lowered = max(SLOWDOWN_FLOOR, slowdown * SLOWDOWN_RATCHET)
        if lowered >= slowdown:
            return None
        return Recommendation(
            rule=self.name, kind="reconfigure",
            reason=f"{len(fresh)} straggler alert(s) with speculation "
                   f"already on: lowering speculative_slowdown "
                   f"{slowdown:g} -> {lowered:g}",
            config_changes={"speculative_slowdown": lowered})


class MigrateOffHotHostRule(TuningRule):
    """Hot-host alerts -> migrate that host's busiest VM elsewhere.

    Consumes fresh ``hot-host`` alerts (cursor, like
    :class:`SpeculateOnStragglersRule`) and proposes moving the alerted
    host's highest-CPU resident to the machine with the most free DRAM.
    """

    name = "migrate-off-hot-host"

    def __init__(self, observatory: "Observatory"):
        self.observatory = observatory
        self._cursor = 0

    def evaluate(self, cluster, analyser, report):
        alerts = self.observatory.alerts("hot-host")
        fresh = alerts[self._cursor:]
        self._cursor = len(alerts)
        if not fresh:
            return None
        alert = fresh[-1]
        residents = [vm for vm in cluster.vms
                     if vm.host is not None
                     and vm.host.name == alert.target]
        if not residents:
            return None
        cpu_of = {s.vm: s.cpu_mean for s in report.node_summaries}
        hottest = max(residents,
                      key=lambda vm: (cpu_of.get(vm.name, 0.0), vm.name))
        machines = cluster.datacenter.machines
        candidates = [
            (i, m) for i, m in enumerate(machines)
            if m.name != alert.target
            and m.dram_free >= hottest.config.memory]
        if not candidates:
            return None
        index, _machine = max(candidates, key=lambda im: im[1].dram_free)
        return Recommendation(
            rule=self.name, kind="migrate",
            reason=f"hot-host alert on {alert.target} (cpu "
                   f"{alert.value:.0%}): migrating {hottest.name} to "
                   f"{machines[index].name}",
            migrations=((hottest.name, index),))


DEFAULT_RULES: tuple[TuningRule, ...] = (
    ReduceSlotsWhenSaturatedRule(),
    IncreaseSlotsWhenCpuIdleRule(),
    ConsolidateCrossDomainRule(),
    RebalanceByMigrationRule(),
)
