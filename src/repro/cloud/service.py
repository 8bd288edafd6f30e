"""The full-fidelity service backends: a real MapReduce job per request.

Both are :class:`~repro.cloud.controller.ServiceController` backends and
both serve a request directly: ``serve(request)`` returns an event whose
value is the :class:`ServiceOutcome` (``sim.run_until(event)`` waits for
it); a job that fails fails the event.  :class:`SharedClusterBackend`
runs every job on one warm cluster; :class:`PerJobClusterBackend` boots a
cluster per job and tears it down — the paper's stated future work.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Optional, Sequence

from repro.cloud.admission import ADMIT
from repro.cloud.traffic import Arrival
from repro.config import HadoopConfig, VMConfig
from repro.errors import ConfigError, PlacementError
from repro.hdfs.client import default_sizeof
from repro.mapreduce.job import Job
from repro.mapreduce.runner import JobReport, MapReduceRunner
from repro.platform.cluster import HadoopVirtualCluster
from repro.platform.vhadoop import VHadoopPlatform
from repro.scheduler import JobScheduler
from repro.sim.kernel import Event
from repro.telemetry import events as EV
from repro.virt.vm import VMState
from repro.workloads.wordcount import lines_as_records, wordcount_job

#: A request's job factory receives the input path and an output path.
JobFactory = Callable[[str, str], Job]


@dataclass
class ServiceRequest:
    """One on-demand computation."""

    name: str
    n_nodes: int
    records: Sequence[Any]
    make_job: JobFactory
    sizeof: Callable[[Any], int] = default_sizeof
    vm_config: Optional[VMConfig] = None
    hadoop_config: Optional[HadoopConfig] = None
    #: Who submitted it — admission decisions and service accounting key
    #: on this (see :mod:`repro.cloud.tenants`).
    tenant: str = "default"

    def __post_init__(self) -> None:
        if self.n_nodes < 2:
            raise ConfigError("a request needs >= 2 nodes (master + worker)")
        if not self.records:
            raise ConfigError(f"request {self.name!r} has no input records")


@dataclass
class ServiceOutcome:
    """What the requester gets back."""

    request: ServiceRequest
    submitted_at: float
    started_at: float = 0.0      # when staging (or provisioning) began
    finished_at: float = 0.0
    report: Optional[JobReport] = None
    output: list = field(default_factory=list)

    @property
    def queue_wait_s(self) -> float:
        return self.started_at - self.submitted_at

    @property
    def total_s(self) -> float:
        return self.finished_at - self.submitted_at


class _ClusterBackend:
    """What both full-fidelity backends share: turning an arrival into a
    :class:`ServiceRequest` and reporting its outcome to the controller.

    ``request_factory`` turns an arrival into a request; by default a
    wordcount over a small fixed sample whose serialized sizes are scaled
    to the arrival's ``size_mb`` — the volume-scaling trick the
    experiments use.  Reassign it to serve other jobs.
    """

    #: Fixed sample corpus; sizes are scaled per arrival.
    SAMPLE_LINES = ["alpha beta gamma delta", "beta gamma", "gamma delta",
                    "delta epsilon zeta"] * 4

    def __init__(self, platform: VHadoopPlatform):
        self.platform = platform
        self.sim = platform.sim
        self.request_factory: Callable = self._default_request
        #: Set by the controller: ``on_done(tenant, submitted_at,
        #: started_at, finished_at, ok)``.
        self.on_done: Optional[Callable] = None

    def _default_request(self, arrival: Arrival) -> ServiceRequest:
        records = lines_as_records(self.SAMPLE_LINES)
        per_record = max(1, int(arrival.size_mb * (1 << 20) / len(records)))
        return ServiceRequest(
            name=arrival.request_id,
            n_nodes=2,  # ignored by the shared cluster
            records=records,
            make_job=lambda inp, out: wordcount_job(inp, out, n_reduces=2),
            sizeof=lambda record: per_record,
            tenant=arrival.tenant)

    def submit(self, arrival: Arrival, spec) -> None:
        """The controller's entry: serve the arrival in its tenant's
        priority pool and report back through ``on_done``."""
        event = self.serve(self.request_factory(arrival), pool=spec.priority)
        event.callbacks.append(partial(self._report, arrival.tenant,
                                       self.sim.now))

    def _report(self, tenant: str, submitted_at: float, event: Event) -> None:
        started_at = submitted_at
        if event.ok:
            outcome = event.value
            started_at += outcome.queue_wait_s + outcome.report.wait_s
        if self.on_done is not None:
            self.on_done(tenant, submitted_at, started_at, self.sim.now,
                         event.ok)


class SharedClusterBackend(_ClusterBackend):
    """Real jobs on one warm cluster, interleaved at slot granularity by a
    :class:`~repro.scheduler.JobScheduler` whose pools isolate tenants.
    ``request.n_nodes`` is ignored: the cluster is what was provisioned,
    grown by any :class:`~repro.platform.provisioning.ElasticWorkerPool`
    over ``scheduler``."""

    def __init__(self, platform: VHadoopPlatform,
                 cluster: HadoopVirtualCluster):
        super().__init__(platform)
        self.cluster = cluster
        self.scheduler = JobScheduler(
            cluster, runner=platform.runners.get(cluster.name))
        self._ids = itertools.count()

    def serve(self, request: ServiceRequest, pool: str = "default") -> Event:
        """Stage the request's input and run its job in ``pool``; the
        serve process is the outcome event."""
        base = f"/shared/{request.name}-{next(self._ids)}"
        return self.sim.process(self._serve(request, pool, base),
                                name=f"shared-svc:{request.name}")

    def _serve(self, request: ServiceRequest, pool: str, base: str):
        now = self.sim.now
        outcome = ServiceOutcome(request=request, submitted_at=now,
                                 started_at=now)
        yield self.cluster.dfs.write_file(
            self.cluster.master, f"{base}/input", request.records,
            sizeof=request.sizeof)
        job = request.make_job(f"{base}/input", f"{base}/output")
        outcome.report = yield self.scheduler.submit(job, pool=pool)
        outcome.output = self.scheduler.runner.read_output(outcome.report)
        outcome.finished_at = self.sim.now
        self.cluster.tracer.emit(
            self.sim.now, EV.CLOUD_REQUEST_DONE, request.name,
            total=outcome.total_s, waited=outcome.queue_wait_s, shared=True)
        return outcome

    def backlog(self) -> int:
        """Dispatchable tasks no slot has taken yet."""
        return (self.scheduler.backlog("map")
                + self.scheduler.backlog("reduce"))

    def total_slots(self) -> int:
        """Schedulable map slots."""
        return self.scheduler.total_slots("map")

    def utilization(self) -> float:
        """Busy share of the live trackers' map and reduce slots."""
        busy = total = 0
        for tracker in self.cluster.trackers:
            if tracker.vm.state in (VMState.FAILED, VMState.STOPPED):
                continue
            busy += tracker.map_slots.in_use + tracker.reduce_slots.in_use
            total += (tracker.map_slots.capacity
                      + tracker.reduce_slots.capacity)
        return busy / total if total else 1.0


class PerJobClusterBackend(_ClusterBackend):
    """Cluster-per-job: each request boots its own ``n_nodes`` VMs (of
    ``request.vm_config``), runs, and tears them down.

    Requests wait in strict FIFO order.  The head starts once the
    datacenter has DRAM for its whole cluster; nothing overtakes it, so
    nothing starves.  Its VMs are placed synchronously, which reserves
    their DRAM before any later same-instant request is considered.
    """

    def __init__(self, platform: VHadoopPlatform):
        super().__init__(platform)
        self.datacenter = platform.datacenter
        self._queue: deque = deque()   # (request, its admission event)
        self._running: dict[str, list] = {}   # cluster name -> its VMs
        self._ids = itertools.count()

    def serve(self, request: ServiceRequest, pool: str = "default") -> Event:
        """Queue ``request`` for a cluster of its own (``pool`` is moot:
        nobody shares it).

        A request that could never fit — more VMs than the empty
        datacenter holds — raises :class:`~repro.errors.PlacementError`
        here instead of queueing forever.
        """
        capacity = self._room(request, empty=True)
        if request.n_nodes > capacity:
            raise PlacementError(
                f"request {request.name!r} wants {request.n_nodes} nodes "
                f"but the datacenter can host at most {capacity} VMs of "
                f"its size")
        admitted = self.sim.event()
        self._queue.append((request, admitted))
        self._admit()
        return self.sim.process(self._serve(request, admitted),
                                name=f"svc:{request.name}")

    def backlog(self) -> int:
        """Requests waiting for DRAM."""
        return len(self._queue)

    def total_slots(self) -> int:
        """Clusters running now."""
        return len(self._running)

    def utilization(self) -> float:
        """Share of the datacenter's guest DRAM the running clusters hold."""
        held = sum(vm.config.memory for vms in self._running.values()
                   for vm in vms)
        return held / sum(machine.config.guest_dram
                          for machine in self.datacenter.machines)

    def _room(self, request: ServiceRequest, empty: bool = False) -> int:
        """VMs of the request's size the datacenter holds free (or empty)."""
        memory = (request.vm_config or self.datacenter.config.vm).memory
        return sum((m.config.guest_dram if empty else m.dram_free) // memory
                   for m in self.datacenter.machines)

    def _admit(self) -> None:
        """Start queue heads while the next one fits, each VM on the host
        with the biggest DRAM gap."""
        machines = self.datacenter.machines
        while (self._queue and self._room(self._queue[0][0])
               >= self._queue[0][0].n_nodes):
            request, admitted = self._queue.popleft()
            name = f"svc-{request.name}-{next(self._ids)}"
            self._running[name] = [
                self.datacenter.create_vm(
                    f"{name}-vm{i:02d}",
                    max(machines, key=lambda m: m.dram_free),
                    config=request.vm_config)
                for i in range(request.n_nodes)]
            self.datacenter.tracer.emit(
                self.sim.now, EV.CLOUD_ADMISSION, request.name,
                tenant=request.tenant, decision=ADMIT,
                reason=f"fits n_nodes={request.n_nodes}")
            admitted.succeed(name)

    def _serve(self, request: ServiceRequest, admitted: Event):
        outcome = ServiceOutcome(request=request, submitted_at=self.sim.now)
        name = yield admitted
        outcome.started_at = self.sim.now
        vms = self._running[name]
        try:
            yield self.sim.all_of([self.datacenter.boot_vm(vm)
                                   for vm in vms])
            cluster = HadoopVirtualCluster(name, self.datacenter, vms[0],
                                           vms[1:],
                                           config=request.hadoop_config)
            runner = MapReduceRunner(cluster)
            input_path = f"/{name}/input"
            yield cluster.dfs.write_file(cluster.master, input_path,
                                         request.records,
                                         sizeof=request.sizeof)
            job = request.make_job(input_path, f"/{name}/output")
            outcome.report = yield runner.submit(job)
            outcome.output = runner.read_output(outcome.report)
        finally:
            # Teardown, also when the job failed: stop every VM, returning
            # DRAM to the next head.
            for vm in self._running.pop(name):
                if vm.host is not None:
                    vm.stop()
            outcome.finished_at = self.sim.now
            self.datacenter.tracer.emit(
                self.sim.now, EV.CLOUD_REQUEST_DONE, request.name,
                total=outcome.total_s, waited=outcome.queue_wait_s)
            self._admit()
        return outcome
