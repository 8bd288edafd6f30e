"""The full-fidelity service backends driven directly through ``serve``:
cluster-per-job (the paper's future work) and the warm shared cluster."""

import collections

import pytest

from repro import constants as C
from repro.cloud import (PerJobClusterBackend, ServiceRequest,
                         SharedClusterBackend)
from repro.config import PlatformConfig, VMConfig
from repro.errors import ConfigError, PlacementError
from repro.platform import VHadoopPlatform
from repro.virt.vm import VMState
from repro.workloads.wordcount import (lines_as_records, line_record_sizeof,
                                       wordcount_job)

LINES = ["iota kappa lambda", "kappa lambda", "lambda"] * 6
EXPECTED = dict(collections.Counter(" ".join(LINES).split()))


def wc_request(name, n_nodes=4, memory=None):
    return ServiceRequest(
        name=name,
        n_nodes=n_nodes,
        records=lines_as_records(LINES),
        make_job=lambda inp, out: wordcount_job(inp, out, n_reduces=2),
        sizeof=line_record_sizeof,
        vm_config=VMConfig(memory=memory) if memory else None,
    )


def big(name):
    # Each host has 30 GiB for guests; 2 GiB VMs x 16 nodes = 32 GiB per
    # request, so two of them (64 GiB) exceed the 60 GiB datacenter.
    return wc_request(name, n_nodes=16, memory=2 * C.GiB)


def make_backend(seed=23, n_hosts=2):
    platform = VHadoopPlatform(PlatformConfig(n_hosts=n_hosts, seed=seed))
    return platform, PerJobClusterBackend(platform)


def serve_all(platform, backend, requests):
    """Serve each request now; run until all are done; their outcomes."""
    events = [backend.serve(request) for request in requests]
    platform.sim.run_until(platform.sim.all_of(events))
    return {event.value.request.name: event.value for event in events}


def test_single_request_end_to_end():
    platform, backend = make_backend()
    event = backend.serve(wc_request("one"))
    platform.sim.run_until(event)
    outcome = event.value
    assert dict(outcome.output) == EXPECTED
    assert outcome.report is not None
    assert outcome.total_s > 18.0  # boot time is part of the service time
    assert outcome.queue_wait_s == 0.0


def test_teardown_returns_capacity():
    platform, backend = make_backend()
    free_before = sum(m.dram_free for m in platform.datacenter.machines)
    serve_all(platform, backend, [wc_request("cycle")])
    free_after = sum(m.dram_free for m in platform.datacenter.machines)
    assert free_after == free_before
    assert all(vm.state is VMState.STOPPED
               for vm in platform.datacenter.vms.values())
    assert backend.total_slots() == 0 and backend.utilization() == 0.0


def test_concurrent_requests_share_the_datacenter():
    platform, backend = make_backend()
    outcomes = serve_all(platform, backend,
                         [wc_request(f"r{i}") for i in range(3)]).values()
    assert all(dict(o.output) == EXPECTED for o in outcomes)
    # All three fit at once: nobody waited.
    assert all(o.queue_wait_s == 0.0 for o in outcomes)
    # They really overlapped.
    starts = [o.started_at for o in outcomes]
    ends = [o.finished_at for o in outcomes]
    assert min(ends) > max(starts)


def test_oversized_demand_queues_then_runs():
    # The second big request must wait for the first to tear down.
    platform, backend = make_backend()
    first = backend.serve(big("first"))
    second = backend.serve(big("second"))
    assert backend.backlog() == 1  # second did not fit immediately
    assert backend.total_slots() == 1
    assert 0.5 < backend.utilization() <= 1.0
    platform.sim.run_until(platform.sim.all_of([first, second]))
    assert second.value.queue_wait_s > 0.0
    assert second.value.started_at >= first.value.finished_at
    assert dict(second.value.output) == EXPECTED


def test_zero_skip_budget_means_strict_fifo():
    """Strict FIFO is the only order: nothing passes the queue head, so a
    small request that would fit waits behind a big one that does not."""
    platform, backend = make_backend()
    by_name = serve_all(platform, backend,
                        [big("blocker"), big("too-big"),
                         wc_request("small", n_nodes=3)])
    assert by_name["small"].queue_wait_s > 0.0
    assert by_name["small"].started_at >= by_name["too-big"].started_at
    assert dict(by_name["small"].output) == EXPECTED


def test_request_validation():
    with pytest.raises(ConfigError):
        wc_request("tiny", n_nodes=1)
    with pytest.raises(ConfigError):
        ServiceRequest(name="empty", n_nodes=3, records=[],
                       make_job=lambda i, o: None)


def test_shared_service_runs_tenants_on_one_warm_cluster():
    from repro.platform import ClusterSpec

    platform = VHadoopPlatform(PlatformConfig(n_hosts=2, seed=23))
    cluster = platform.provision_cluster("warm", ClusterSpec.single_host(6))
    backend = SharedClusterBackend(platform, cluster)
    events = [backend.serve(wc_request("a"), pool="tenant-a"),
              backend.serve(wc_request("b"), pool="tenant-b")]
    platform.sim.run_until(platform.sim.all_of(events))
    outcomes = [event.value for event in events]
    assert all(dict(o.output) == EXPECTED for o in outcomes)
    # No per-job boot: far quicker than the ~18 s cluster-per-job path.
    assert all(o.total_s < 18.0 for o in outcomes)
    report = backend.scheduler.finalize()
    assert len(report.jobs) == 2
    assert {j.pool for j in report.jobs} == {"tenant-a", "tenant-b"}
    done = list(platform.tracer.select("cloud.request.done"))[-1]
    assert done["shared"] is True


def test_service_emits_trace():
    platform, backend = make_backend()
    serve_all(platform, backend, [wc_request("traced")])
    done = list(platform.tracer.select("cloud.request.done"))[-1]
    assert done["total"] > 0


def admission_events(platform):
    return [e for e in platform.tracer.events
            if e.kind == "cloud.admission.decision"]


def test_every_admission_verdict_is_announced():
    platform, backend = make_backend()
    fast = backend.serve(wc_request("fast"))
    blocker = backend.serve(big("blocker"))
    waiter = backend.serve(big("waiter"))
    by_source = {e.source: e for e in admission_events(platform)}
    assert by_source["fast"]["decision"] == "admit"
    assert by_source["fast"]["tenant"] == "default"
    assert "n_nodes=4" in by_source["fast"]["reason"]
    assert "waiter" not in by_source  # still queued: no verdict yet
    platform.sim.run_until(platform.sim.all_of([fast, blocker, waiter]))
    # The waiter is announced once, when it finally starts.
    waiter_decisions = [e["decision"] for e in admission_events(platform)
                        if e.source == "waiter"]
    assert waiter_decisions == ["admit"]


def test_impossible_request_raises_without_queueing():
    platform, backend = make_backend()
    # 64 nodes x 2 GiB = 128 GiB can never fit the 60 GiB datacenter.
    with pytest.raises(PlacementError, match="at most 30 VMs"):
        backend.serve(wc_request("hopeless", n_nodes=64, memory=2 * C.GiB))
    assert backend.backlog() == 0  # never entered the queue
    assert not platform.datacenter.vms
