"""VHadoopPlatform: the Fig. 1 facade.

The paper's execution flow:

1. the Machine Learning Algorithm Library sends a cluster request;
2. the Virtualization Module starts a hadoop virtual cluster;
3. the Hadoop Module configures master and workers;
4. input data is uploaded to HDFS;
5–7. the master assigns maps/reduces and the workers run them;
8. output is collected;
9. the nmon Monitor watches every VM throughout, and the MapReduce Tuner
   adjusts the configuration from the monitoring data.

:class:`VHadoopPlatform` implements steps 1–8 directly (provision →
upload → run_job → collect); the monitor and tuner attach through
:meth:`attach_monitor` from :mod:`repro.monitor` / :mod:`repro.tuner`.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence

from repro.config import HadoopConfig, PlatformConfig, VMConfig
from repro.errors import ConfigError
from repro.hdfs.client import default_sizeof
from repro.mapreduce.job import Job
from repro.mapreduce.runner import JobReport, MapReduceRunner
from repro.platform.cluster import HadoopVirtualCluster
from repro.platform.provisioning import Placement, validate_placement
from repro.platform.spec import ClusterSpec
from repro.telemetry import events as EV
from repro.virt.datacenter import Datacenter


class VHadoopPlatform:
    """Top-level entry point of the reproduction."""

    def __init__(self, config: Optional[PlatformConfig] = None):
        self.config = config or PlatformConfig()
        self.datacenter = Datacenter(self.config)
        self.clusters: dict[str, HadoopVirtualCluster] = {}
        self.runners: dict[str, MapReduceRunner] = {}

    # -- step 1-3: provision -----------------------------------------------
    def provision_cluster(self, name: str,
                          spec: "ClusterSpec | Placement",
                          vm_config: Optional[VMConfig] = None,
                          hadoop_config: Optional[HadoopConfig] = None,
                          boot: bool = False) -> HadoopVirtualCluster:
        """Create a hadoop virtual cluster: VM 0 is the namenode/master,
        the rest are datanode/workers (paper: n-node = 1 + (n-1)).

        ``spec`` is normally a declarative :class:`ClusterSpec`, resolved
        here against this datacenter's machines; a pre-resolved
        :class:`Placement` is accepted for low-level callers.  Per-spec
        ``vm``/``hadoop`` configs apply unless overridden by the explicit
        keyword arguments.

        ``boot=True`` simulates the NFS image fetch and guest boot for every
        VM; the default places the cluster already running, which is how
        every steady-state experiment in the paper starts.
        """
        if name in self.clusters:
            raise ConfigError(f"cluster {name!r} already exists")
        if isinstance(spec, ClusterSpec):
            placement = spec.placement(len(self.datacenter.machines))
            vm_config = vm_config or spec.vm
            hadoop_config = hadoop_config or spec.hadoop
        else:
            placement = spec
        if placement.n_vms < 2:
            raise ConfigError("a cluster needs >= 2 VMs (master + worker)")
        validate_placement(placement, self.datacenter.machines)
        vms = []
        for i in range(placement.n_vms):
            host = self.datacenter.machine(placement.host_of(i))
            vms.append(self.datacenter.create_vm(
                f"{name}-vm{i:02d}", host, config=vm_config))
        if boot:
            events = [self.datacenter.boot_vm(vm) for vm in vms]
            gate = self.datacenter.sim.all_of(events)
            self.datacenter.sim.run_until(gate)
        else:
            for vm in vms:
                self.datacenter.instant_boot(vm)
        cluster = HadoopVirtualCluster(name, self.datacenter, vms[0], vms[1:],
                                       config=hadoop_config)
        self.clusters[name] = cluster
        self.runners[name] = MapReduceRunner(cluster)
        self.datacenter.tracer.emit(
            self.datacenter.now, EV.CLUSTER_PROVISIONED, name,
            nodes=cluster.n_nodes, placement=placement.label)
        return cluster

    def runner(self, cluster: HadoopVirtualCluster) -> MapReduceRunner:
        return self.runners[cluster.name]

    # -- step 4: upload ----------------------------------------------------------
    def upload(self, cluster: HadoopVirtualCluster, path: str,
               records: Sequence[Any],
               sizeof: Callable[[Any], int] = default_sizeof,
               timed: bool = True) -> None:
        """Put input data into the cluster's HDFS from the master VM.

        ``timed=False`` stages the data without charging simulated time
        (for experiments that measure only job runtime, the paper's usual
        protocol)."""
        if timed:
            event = cluster.dfs.write_file(cluster.master, path, records,
                                           sizeof=sizeof)
            self.datacenter.sim.run_until(event)
            assert event.triggered
        else:
            self._stage_untimed(cluster, path, records, sizeof)

    def _stage_untimed(self, cluster, path, records, sizeof) -> None:
        namenode = cluster.namenode
        f = namenode.create_file(path)
        client = cluster.dfs
        for block, payload in client._pack_blocks(records, sizeof):
            targets = namenode.choose_write_targets(
                cluster.master.name, cluster.config.dfs_replication)
            namenode.block_store.put(block, payload)
            namenode.commit_block(f, block, targets)

    # -- steps 5-8: run and collect ---------------------------------------------
    def run_job(self, cluster: HadoopVirtualCluster, job: Job) -> JobReport:
        """Run a job to completion; returns its report."""
        return self.runners[cluster.name].run_to_completion(job)

    def collect(self, cluster: HadoopVirtualCluster, report: JobReport
                ) -> list[tuple[Any, Any]]:
        """Step 8: gather the job's output records."""
        return self.runners[cluster.name].read_output(report)

    # -- shortcuts ------------------------------------------------------------
    @property
    def sim(self):
        return self.datacenter.sim

    @property
    def tracer(self):
        return self.datacenter.tracer

    @property
    def telemetry(self):
        """The datacenter-wide :class:`~repro.telemetry.Telemetry` handle."""
        return self.datacenter.telemetry
