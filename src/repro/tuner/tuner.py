"""The MapReduce Tuner: evaluate rules, apply recommendations.

Closing the paper's Fig. 1 loop: monitor -> analyse -> recommend -> apply,
where *apply* is either :meth:`HadoopVirtualCluster.reconfigure` or a batch
of live migrations through the platform's :class:`LiveMigrator`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, TYPE_CHECKING

from repro.errors import TunerError
from repro.monitor.analyser import NmonAnalyser
from repro.tuner.rules import DEFAULT_RULES, Recommendation, TuningRule

if TYPE_CHECKING:  # pragma: no cover
    from repro.platform.cluster import HadoopVirtualCluster


@dataclass
class TuningLogEntry:
    time: float
    recommendation: Recommendation
    applied: bool
    detail: str = ""


class MapReduceTuner:
    """Rule-driven tuner bound to one cluster's telemetry handle.

    The tuner reads every metric through ``cluster.telemetry``.  To drive
    detection, attach an :class:`~repro.observatory.core.Observatory` and
    use the alert-driven rules
    (:class:`~repro.tuner.rules.SpeculateOnStragglersRule`,
    :class:`~repro.tuner.rules.MigrateOffHotHostRule`) — the observatory
    does the anomaly detection online and the rules consume its alerts.
    """

    def __init__(self, cluster: "HadoopVirtualCluster",
                 rules: Sequence[TuningRule] = DEFAULT_RULES):
        if not rules:
            raise TunerError("tuner needs at least one rule")
        self.cluster = cluster
        self.telemetry = cluster.telemetry
        self.rules = list(rules)
        self.log: list[TuningLogEntry] = []

    @property
    def analyser(self) -> NmonAnalyser:
        return self.telemetry.analyser

    # -- evaluation ----------------------------------------------------------
    def recommend(self) -> Optional[Recommendation]:
        """First matching rule's recommendation (rules are priority-ordered)."""
        report = self.telemetry.bottleneck()
        for rule in self.rules:
            rec = rule.evaluate(self.cluster, self.analyser, report)
            if rec is not None:
                return rec
        return None

    # -- application ------------------------------------------------------------
    def apply(self, recommendation: Recommendation) -> None:
        """Apply one recommendation (reconfigure immediately; migrations
        run to completion on the simulator)."""
        if recommendation.kind == "reconfigure":
            new_config = self.cluster.config.replace(
                **recommendation.config_changes)
            self.cluster.reconfigure(new_config)
            self.log.append(TuningLogEntry(
                self.cluster.sim.now, recommendation, True,
                detail=str(recommendation.config_changes)))
        elif recommendation.kind == "migrate":
            dc = self.cluster.datacenter
            moved = []
            for vm_name, host_index in recommendation.migrations:
                vm = dc.vms[vm_name]
                event = dc.migrator.migrate(vm, dc.machine(host_index))
                dc.sim.run_until(event)
                moved.append(vm_name)
            self.log.append(TuningLogEntry(
                self.cluster.sim.now, recommendation, True,
                detail=f"migrated {moved}"))
        elif recommendation.kind == "none":
            self.log.append(TuningLogEntry(
                self.cluster.sim.now, recommendation, False))
        else:
            raise TunerError(
                f"unknown recommendation kind {recommendation.kind!r}")

    def step(self) -> Optional[Recommendation]:
        """One monitor->recommend->apply cycle; returns what was applied."""
        recommendation = self.recommend()
        if recommendation is not None:
            self.apply(recommendation)
        return recommendation
