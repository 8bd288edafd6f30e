"""Quota, graded load shedding, and capacity reserved at admission."""

import pytest

from repro import constants as C
from repro.cloud import (ADMIT, REJECT_OVERLOAD, REJECT_QUOTA,
                         AdmissionController, AdmissionDecision,
                         PerJobClusterBackend, ServiceRequest, TenantSpec,
                         TenantStats)
from repro.config import PlatformConfig, VMConfig
from repro.errors import ConfigError
from repro.platform import VHadoopPlatform
from repro.workloads.wordcount import lines_as_records, wordcount_job


def spec(priority="standard", quota=4):
    return TenantSpec(name="t", priority=priority, quota_inflight=quota)


def stats(inflight=0):
    s = TenantStats(tenant="t")
    s.inflight = inflight
    return s


def test_decision_validation():
    with pytest.raises(ConfigError):
        AdmissionDecision("maybe")
    assert AdmissionDecision(ADMIT).admitted
    assert AdmissionDecision(REJECT_QUOTA, "x").rejected
    with pytest.raises(ConfigError):
        AdmissionController(shed_start=4.0, shed_hard=2.0)


def test_quota_binds_before_overload():
    ctl = AdmissionController(shed_start=2.0, shed_hard=4.0)
    verdict = ctl.decide(spec(quota=4), stats(inflight=4), overload=100.0)
    assert verdict.decision == REJECT_QUOTA
    assert "quota=4" in verdict.reason
    assert ctl.decide(spec(quota=4), stats(3), 0.0).admitted


def test_graded_shedding_ladder():
    ctl = AdmissionController(shed_start=2.0, shed_hard=4.0)
    # Thresholds climb with importance: batch 2.0, standard 3.0,
    # interactive 4.0.
    assert ctl.shed_threshold(spec("batch")) == 2.0
    assert ctl.shed_threshold(spec("standard")) == 3.0
    assert ctl.shed_threshold(spec("interactive")) == 4.0
    for overload, shed in ((1.9, ()), (2.5, ("batch",)),
                           (3.5, ("batch", "standard")),
                           (4.0, ("batch", "standard", "interactive"))):
        for priority in ("interactive", "standard", "batch"):
            verdict = ctl.decide(spec(priority), stats(), overload)
            expected = REJECT_OVERLOAD if priority in shed else ADMIT
            assert verdict.decision == expected, (overload, priority)


def per_job_backend():
    """Cluster-per-job over two hosts with 30 GiB of guest DRAM each."""
    platform = VHadoopPlatform(PlatformConfig(n_hosts=2, seed=23))
    return platform, PerJobClusterBackend(platform)


def request(name, n_nodes, memory_gib):
    return ServiceRequest(
        name=name, n_nodes=n_nodes, records=lines_as_records(["a b"]),
        make_job=lambda inp, out: wordcount_job(inp, out),
        vm_config=VMConfig(memory=memory_gib * C.GiB))


def test_strict_fifo_at_zero_budget():
    # The queue head never lets anything pass it: a small request that
    # would fit beside the running one waits behind the head that does
    # not.
    platform, backend = per_job_backend()
    backend.serve(request("running", 10, 4))
    backend.serve(request("head", 10, 4))
    backend.serve(request("small", 2, 1))
    assert backend.total_slots() == 1 and backend.backlog() == 2


def test_admissions_see_reserved_capacity():
    # Two 10-VM x 4 GiB requests each fit the empty 60 GiB datacenter
    # but not together.  The first one's VMs are placed, and so hold
    # their DRAM, before the same-instant second one is considered.
    platform, backend = per_job_backend()
    backend.serve(request("a", 10, 4))
    backend.serve(request("b", 10, 4))
    assert backend.total_slots() == 1 and backend.backlog() == 1
    free = sum(m.dram_free for m in platform.datacenter.machines)
    assert free == 60 * C.GiB - 10 * 4 * C.GiB
