"""Scenario execution: one :class:`~repro.fuzz.scenario.Scenario` in, one
:class:`FuzzRunResult` out.

The runner is the bridge between the fuzzer's pure data and the platform:

1. provision the scenario's cluster over its declarative topology;
2. materialize every workload (and every adversarial payload) into
   records, stage them into HDFS untimed, and run the fault-free
   :class:`~repro.mapreduce.local.LocalJobRunner` oracle over the same
   records;
3. submit all jobs through a :class:`~repro.scheduler.JobScheduler`
   under the sampled policy, start the
   :class:`~repro.chaos.injector.ChaosInjector` with the resolved fault
   plan, and watch everything through an observatory;
4. drive the simulation behind a liveness deadline (a hung platform is a
   finding, not a hung fuzzer), settle recovery to quiescence, then hand
   the collected :class:`~repro.fuzz.invariants.RunContext` to the
   :class:`~repro.fuzz.invariants.InvariantSuite`.

Symbolic fault targets resolve *modulo* the live cluster (worker ``i`` →
``workers[i % n]``; ``host.crash`` maps onto hosts that actually carry
workers), so shrunk topologies keep their fault schedules meaningful.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

import numpy as np

from repro import constants as C
from repro.chaos import ChaosInjector, Fault, FaultPlan
from repro.cloud.adversaries import AdversarySpec
from repro.config import PlatformConfig, TopologySpec
from repro.datasets.sample_data import generate_sample_data, sample_sizeof
from repro.datasets.tera import records_for_bytes, tera_sizeof, teragen
from repro.datasets.text import generate_corpus
from repro.digest import Digest
from repro.fuzz.invariants import (InvariantSuite, JobOutcome, RunContext,
                                   Violation)
from repro.fuzz.scenario import FuzzJob, Scenario
from repro.hdfs.replication import under_replicated
from repro.mapreduce.api import HashPartitioner
from repro.mapreduce.job import Job
from repro.mapreduce.local import LocalJobRunner
from repro.ml.kmeans import KMeansDriver
from repro.platform import ClusterSpec, VHadoopPlatform
from repro.scheduler import (CapacityScheduler, FairScheduler, FifoScheduler,
                             JobScheduler, QueueConfig)
from repro.workloads.terasort import (TeraSortMapper, TeraSortReducer,
                                      make_terasort_jobs)
from repro.workloads.wordcount import (lines_as_records, scaled_line_sizeof,
                                       wordcount_job)

#: Simulated-seconds budget before a run is declared hung ("liveness").
LIVENESS_S = 4 * 3600.0
#: Post-completion settle window: heartbeat reaping, re-replication,
#: pending heals all finish inside it.
SETTLE_S = 300.0

#: Volume scales: materialize 1/scale of the records, charge full bytes.
_WC_SCALE = 64
_TERA_SCALE = 256


@dataclass
class MaterializedJob:
    """A scenario job turned into records + a runnable Job."""

    job: Job
    records: list
    sizeof: Callable[[Any], int]
    pool: str
    kind: str
    input_path: str
    float_outputs: bool = False
    oracle_output: Optional[list] = None
    oracle_counters: Optional[Any] = None


@dataclass
class FuzzRunResult:
    """Outcome of one scenario run."""

    scenario: Scenario
    violations: list[Violation] = field(default_factory=list)
    context: Optional[RunContext] = None
    run_digest: str = ""

    @property
    def ok(self) -> bool:
        return not self.violations


# -- materialization ---------------------------------------------------------

def _job_rng(scenario: Scenario, index: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence([0xF0220B, scenario.seed, index]))


def _materialize_wordcount(j: FuzzJob, index: int, rng, use_combiner: bool,
                           scale: int = _WC_SCALE,
                           nbytes: Optional[int] = None,
                           name: Optional[str] = None) -> MaterializedJob:
    nbytes = nbytes if nbytes is not None else j.size_mb * C.MB
    lines = generate_corpus(max(1024, nbytes // scale), rng=rng)
    records = lines_as_records(lines)
    path = f"/fuzz/job{index}/input"
    job = wordcount_job(path, f"/fuzz/job{index}/output",
                        n_reduces=max(1, j.n_reduces),
                        use_combiner=use_combiner, volume_scale=scale)
    job.name = name or f"wordcount-{index}"
    return MaterializedJob(job=job, records=records,
                           sizeof=scaled_line_sizeof(scale), pool=j.pool,
                           kind="wordcount", input_path=path)


def _materialize_terasort(j: FuzzJob, index: int, rng) -> MaterializedJob:
    n_records = records_for_bytes(max(1, j.size_mb * C.MB // _TERA_SCALE))
    raw = teragen(n_records, rng=rng)
    records = [(r.key, r.row) for r in raw]
    path = f"/fuzz/job{index}/input"
    job = make_terasort_jobs(path, f"/fuzz/job{index}/output", records,
                             n_reduces=max(1, j.n_reduces),
                             volume_scale=_TERA_SCALE)
    job.name = f"terasort-{index}"
    return MaterializedJob(
        job=job, records=records,
        sizeof=lambda r: tera_sizeof(r) * _TERA_SCALE,
        pool=j.pool, kind="terasort", input_path=path)


def _materialize_kmeans(j: FuzzJob, index: int, rng) -> MaterializedJob:
    points, _labels = generate_sample_data(rng=rng)
    n_points = min(len(points), 50 * j.size_mb)
    records = [(i, (float(p[0]), float(p[1])))
               for i, p in enumerate(points[:n_points])]
    centers = [records[i][1] for i in range(3)]
    driver = KMeansDriver(initial_centers=centers,
                          n_reduces=max(1, j.n_reduces))
    path = f"/fuzz/job{index}/input"
    job = driver._iteration_job(path, f"/fuzz/job{index}/output",
                                centers, d=2)
    job.name = f"kmeans-{index}"
    return MaterializedJob(job=job, records=records, sizeof=sample_sizeof,
                           pool=j.pool, kind="kmeans", input_path=path,
                           float_outputs=True)


def hot_key_lines(rng, n_lines: int, intensity: int = 1) -> list[str]:
    """A wordcount corpus where the word ``hotspot`` dominates.

    Intensity 1/2/3 makes ~50/70/90% of all tokens the hot word, so the
    reducer that owns it sees a single giant value list while its peers
    idle — the shuffle-side hot-partition attack.
    """
    fraction = {1: 0.5, 2: 0.7, 3: 0.9}[intensity]
    words_per_line = 12
    lines = []
    for _ in range(n_lines):
        tokens = []
        for _ in range(words_per_line):
            if float(rng.uniform(0.0, 1.0)) < fraction:
                tokens.append("hotspot")
            else:
                tokens.append(f"w{int(rng.integers(0, 512)):03d}")
        lines.append(" ".join(tokens))
    return lines


def skewed_keys(rng, n_records: int, n_reduces: int,
                intensity: int = 1) -> list[tuple[str, int]]:
    """Records whose keys hash-partition almost entirely into one bucket.

    Keys are rejection-sampled so ``hash(key) % n_reduces`` lands in
    partition 0 for the skewed share (60/80/95% by intensity) — the
    straggler-inducing partition-skew attack against any hash
    partitioner, independent of key distribution assumptions.
    """
    partitioner = HashPartitioner()
    share = {1: 0.6, 2: 0.8, 3: 0.95}[intensity]
    records = []
    for i in range(n_records):
        want_hot = float(rng.uniform(0.0, 1.0)) < share
        for attempt in range(64):
            key = f"k{int(rng.integers(0, 1 << 30)):08x}"
            bucket = partitioner.partition(key, max(1, n_reduces))
            if (bucket == 0) == want_hot or n_reduces <= 1:
                break
        records.append((key, i))
    return records


def spam_job_count(intensity: int = 1) -> int:
    """How many tiny jobs the noisy neighbor floods in (per actor)."""
    return {1: 2, 2: 4, 3: 6}[intensity]


def _materialize_adversary(spec: AdversarySpec, index: int, rng,
                           use_combiner: bool) -> list[MaterializedJob]:
    """The adversary's payload jobs (hostile by construction)."""
    if spec.kind == "hotkey":
        fake = FuzzJob(kind="wordcount", size_mb=1, n_reduces=2,
                       pool=spec.tenant)
        mat = _materialize_wordcount(
            fake, index, rng, use_combiner, scale=8,
            nbytes=300 * spec.intensity * 80,
            name=f"adv-hotkey-{index}")
        mat.records = lines_as_records(
            hot_key_lines(rng, 300 * spec.intensity, spec.intensity))
        mat.kind = "adv-hotkey"
        return [mat]
    if spec.kind == "skew":
        n_reduces = 4
        records = skewed_keys(rng, 400 * spec.intensity, n_reduces,
                              spec.intensity)
        path = f"/fuzz/job{index}/input"
        job = Job(name=f"adv-skew-{index}", input_paths=[path],
                  output_path=f"/fuzz/job{index}/output",
                  mapper=TeraSortMapper, reducer=TeraSortReducer,
                  n_reduces=n_reduces)
        return [MaterializedJob(job=job, records=records,
                                sizeof=lambda _r: 24, pool=spec.tenant,
                                kind="adv-skew", input_path=path)]
    # spam: a train of tiny jobs from one noisy tenant
    mats = []
    for k in range(spam_job_count(spec.intensity)):
        fake = FuzzJob(kind="wordcount", size_mb=1, n_reduces=1,
                       pool=spec.tenant)
        mat = _materialize_wordcount(fake, index + k, rng, use_combiner,
                                     scale=4, nbytes=64 * 1024,
                                     name=f"adv-spam-{index + k}")
        mat.kind = "adv-spam"
        mats.append(mat)
    return mats


def materialize_jobs(scenario: Scenario) -> list[MaterializedJob]:
    """All jobs of a scenario (workloads first, adversaries after)."""
    use_combiner = scenario.knobs.use_combiner
    mats: list[MaterializedJob] = []
    index = 0
    for j in scenario.jobs:
        rng = _job_rng(scenario, index)
        if j.kind == "wordcount":
            mats.append(_materialize_wordcount(j, index, rng, use_combiner))
        elif j.kind == "terasort":
            mats.append(_materialize_terasort(j, index, rng))
        else:
            mats.append(_materialize_kmeans(j, index, rng))
        index += 1
    for spec in scenario.adversaries:
        rng = _job_rng(scenario, index)
        batch = _materialize_adversary(spec, index, rng, use_combiner)
        mats.extend(batch)
        index += len(batch)
    return mats


def _run_oracle(mat: MaterializedJob, use_combiner: bool) -> None:
    """Fault-free expected output/counters over the same records.

    The cluster applies a job's combiner only when the Hadoop config
    enables it; mirror that gate here so the oracle computes what the
    cluster *should* compute.
    """
    job = mat.job if use_combiner else dataclasses.replace(mat.job,
                                                           combiner=None)
    local = LocalJobRunner()
    mat.oracle_output = local.run(job, mat.records)
    mat.oracle_counters = local.counters


# -- fault resolution ---------------------------------------------------------

def resolve_faults(scenario: Scenario, cluster) -> FaultPlan:
    """Turn symbolic fault targets into a concrete :class:`FaultPlan`."""
    workers = cluster.workers
    worker_hosts = sorted({vm.host.name for vm in workers
                           if vm.host is not None})
    all_hosts = [m.name for m in cluster.datacenter.machines]
    plan = FaultPlan(name=f"fuzz-{scenario.seed}")
    for f in scenario.faults:
        if f.scope == "worker":
            target = workers[f.index % len(workers)].name
        elif f.kind == "host.crash":
            target = worker_hosts[f.index % len(worker_hosts)]
        else:
            target = all_hosts[f.index % len(all_hosts)]
        plan.add(Fault(at=f.at, kind=f.kind, target=target,
                       duration=f.duration, factor=f.factor))
    return plan


def expected_failed_workers(scenario: Scenario, cluster) -> frozenset:
    """Workers the scenario permanently crashes (no heal, no rejoin)."""
    workers = cluster.workers
    names = set()
    for f in scenario.faults:
        if f.kind == "vm.crash" and f.duration == 0.0:
            rejoined = any(r.kind == "rejoin" and r.index == f.index
                           and r.at > f.at for r in scenario.faults)
            if not rejoined:
                names.add(workers[f.index % len(workers)].name)
    return frozenset(names)


def _make_policy(name: str, pools: list[str]):
    if name == "fifo":
        return FifoScheduler()
    if name == "fair":
        return FairScheduler()
    capacity = round(1.0 / max(1, len(pools)), 6)
    return CapacityScheduler([QueueConfig(name=pool, capacity=capacity)
                              for pool in sorted(pools)])


# -- execution ----------------------------------------------------------------

def run_scenario(scenario: Scenario) -> FuzzRunResult:
    """Run one scenario end to end and check every invariant."""
    scenario.validate()
    ctx = RunContext(scenario=scenario)
    try:
        _execute(scenario, ctx)
    except Exception as exc:  # noqa: BLE001 — every escape is a finding
        ctx.crash = f"{type(exc).__name__}: {exc}"
    violations = InvariantSuite().check(ctx)
    return FuzzRunResult(scenario=scenario, violations=violations,
                         context=ctx, run_digest=_run_digest(ctx))


def _execute(scenario: Scenario, ctx: RunContext) -> None:
    topo = TopologySpec(racks=scenario.racks,
                        hosts_per_rack=scenario.hosts_per_rack,
                        vms_per_host=scenario.vms_per_host)
    platform = VHadoopPlatform(PlatformConfig(topology=topo,
                                              seed=scenario.seed))
    spec = ClusterSpec.racked(topo, n_vms=scenario.n_vms,
                              layout=scenario.layout)
    cluster = platform.provision_cluster(
        "fuzz", spec, hadoop_config=scenario.knobs.hadoop_config())

    mats = materialize_jobs(scenario)
    for mat in mats:
        platform.upload(cluster, mat.input_path, mat.records,
                        sizeof=mat.sizeof, timed=False)
        _run_oracle(mat, scenario.knobs.use_combiner)

    pools: list[str] = []
    for mat in mats:
        if mat.pool not in pools:
            pools.append(mat.pool)
    policy = _make_policy(scenario.knobs.policy, pools)
    scheduler = JobScheduler(cluster, policy=policy,
                             runner=platform.runner(cluster))
    events = [scheduler.submit(mat.job, pool=mat.pool) for mat in mats]

    plan = resolve_faults(scenario, cluster)
    cluster.arm_recovery()
    injector = None
    if plan.faults:
        injector = ChaosInjector(cluster, plan)
        injector.start()
    observatory = cluster.observatory()
    observatory.start()

    sim = platform.sim
    gate = sim.all_of(events)
    deadline = sim.timeout(LIVENESS_S)
    try:
        sim.run_until(sim.any_of([gate, deadline]))
        if not gate.triggered:
            ctx.deadline_hit = True
            ctx.elapsed_s = sim.now
            for mat, event in zip(mats, events):
                ctx.jobs.append(JobOutcome(
                    name=mat.job.name, kind=mat.kind, pool=mat.pool,
                    n_records=len(mat.records),
                    report=event.value if event.triggered else None))
            return
        reports = [event.value for event in events]
        ctx.sched_report = scheduler.finalize()
        # Quiescence: let heartbeat reaping, re-replication and pending
        # heals drain before judging recovery convergence.
        sim.run(until=max(sim.now, plan.horizon) + SETTLE_S)
    finally:
        if observatory.running:
            observatory.stop()

    ctx.alert_count = len(observatory.alerts())
    ctx.chaos_digest = injector.report.digest() if injector else ""
    runner = platform.runner(cluster)
    for mat, report in zip(mats, reports):
        ctx.jobs.append(JobOutcome(
            name=mat.job.name, kind=mat.kind, pool=mat.pool,
            n_records=len(mat.records), report=report,
            output=runner.read_output(report),
            oracle_output=mat.oracle_output,
            oracle_counters=mat.oracle_counters,
            float_outputs=mat.float_outputs))
    ctx.under_replicated = under_replicated(cluster.namenode,
                                            cluster.config.dfs_replication)
    ctx.worker_states = {vm.name: vm.state.name for vm in cluster.workers}
    ctx.expected_failed = expected_failed_workers(scenario, cluster)
    ctx.elapsed_s = sim.now


# -- run digest ---------------------------------------------------------------

def _run_digest(ctx: RunContext) -> str:
    """Deterministic hash of everything a replay must reproduce."""
    h = Digest()
    h.update(ctx.scenario.digest())
    h.update(f"\ncrash={ctx.crash or ''}")
    h.update(f"\ndeadline={int(ctx.deadline_hit)}")
    for job in ctx.jobs:
        finished = (f"{job.report.finished_at:.6f}"
                    if job.report is not None else "-")
        counters = ("" if job.report is None else "|".join(
            f"{k}={v}" for k, v in
            sorted(job.report.counters.group("job").items())))
        h.update(f"\n{job.name}|{finished}|{counters}")
    h.update(f"\nchaos={ctx.chaos_digest}")
    h.update(f"\nalerts={ctx.alert_count}")
    h.update(f"\nunder_rep={len(ctx.under_replicated)}")
    for name in sorted(ctx.worker_states):
        h.update(f"\n{name}={ctx.worker_states[name]}")
    return h.hex()
