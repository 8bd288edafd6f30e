"""Admission control for the always-on service.

:class:`AdmissionController` is the per-arrival policy of the
:class:`~repro.cloud.controller.ServiceController`: a hard per-tenant
in-flight quota, then graded load shedding by priority class once the
service overloads.  Batch traffic sheds first (at ``shed_start``),
interactive last (at ``shed_hard``), standard midway — so an overloaded
service degrades from the bottom of the priority ladder upward instead of
collapsing uniformly.

Every decision is an explicit :data:`AdmissionDecision` with a stable
reason string; decisions are pure functions of their inputs (no RNG), so
same-seed runs reject byte-identically.  Capacity waits are the
backends' business: the cluster-per-job backend queues admitted requests
in strict FIFO order until their DRAM is free.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cloud.tenants import PRIORITIES, TenantSpec, TenantStats
from repro.errors import ConfigError

# -- decisions ---------------------------------------------------------------
ADMIT = "admit"
REJECT_QUOTA = "reject-quota"        # tenant over its in-flight quota
REJECT_OVERLOAD = "reject-overload"  # shed by priority under overload

DECISIONS = (ADMIT, REJECT_QUOTA, REJECT_OVERLOAD)


@dataclass(frozen=True)
class AdmissionDecision:
    """One arrival's verdict, with a stable human-readable reason."""

    decision: str
    reason: str = ""

    def __post_init__(self) -> None:
        if self.decision not in DECISIONS:
            raise ConfigError(f"unknown decision {self.decision!r}")

    @property
    def admitted(self) -> bool:
        return self.decision == ADMIT

    @property
    def rejected(self) -> bool:
        return self.decision in (REJECT_QUOTA, REJECT_OVERLOAD)


#: Admissions carry no reason, so every one is this one frozen decision.
_ADMITTED = AdmissionDecision(ADMIT)


class AdmissionController:
    """Quota + graded-priority load shedding for the always-on service.

    ``overload`` is the caller-supplied pressure signal — the controller
    uses backlog per schedulable slot.  Below ``shed_start`` everything
    within quota is admitted; between ``shed_start`` and ``shed_hard`` the
    priority ladder sheds bottom-up (batch, then standard); at or above
    ``shed_hard`` even interactive traffic is shed.
    """

    def __init__(self, shed_start: float = 2.0, shed_hard: float = 4.0):
        if not 0 < shed_start < shed_hard:
            raise ConfigError("need 0 < shed_start < shed_hard")
        self.shed_start = float(shed_start)
        self.shed_hard = float(shed_hard)
        # rank 0 (interactive) sheds at shed_hard, the last rank (batch)
        # at shed_start, the ranks between evenly spaced.
        last = len(PRIORITIES) - 1
        step = (self.shed_hard - self.shed_start) / last
        self._shed_at = {priority: self.shed_start + step * (last - rank)
                         for rank, priority in enumerate(PRIORITIES)}

    def shed_threshold(self, spec: TenantSpec) -> float:
        """Overload level at which this tenant's class starts shedding."""
        return self._shed_at[spec.priority]

    def decide(self, spec: TenantSpec, stats: TenantStats,
               overload: float) -> AdmissionDecision:
        if stats.inflight >= spec.quota_inflight:
            return AdmissionDecision(
                REJECT_QUOTA,
                f"inflight={stats.inflight} >= quota={spec.quota_inflight}")
        threshold = self._shed_at[spec.priority]
        if overload >= threshold:
            return AdmissionDecision(
                REJECT_OVERLOAD,
                f"overload={overload:.3f} >= {threshold:.3f} "
                f"({spec.priority})")
        return _ADMITTED

