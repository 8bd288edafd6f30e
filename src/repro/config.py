"""Configuration dataclasses for the vHadoop platform.

These mirror the knobs the paper names: VM shape (1 VCPU / 1024 MB), host
shape (Dell T710: 8 cores, 32 GiB), Hadoop parameters (``dfs.replication``,
``dfs.block.size``, ``map.tasks.maximum``, ``reduce.tasks.maximum``), and the
platform-wide layout (hosts, NFS image store, seed).

All configs are frozen; derived variants are produced with
:func:`dataclasses.replace`.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

from repro import constants as C
from repro.errors import ConfigError


def _require_finite(config, *names: str) -> None:
    """Reject NaN and infinities first: every range check below is a
    ``<`` / ``<=`` comparison, which NaN passes."""
    for name in names:
        value = getattr(config, name)
        if not -math.inf < value < math.inf:
            raise ConfigError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class VMConfig:
    """Shape of one virtual machine (paper: 1 VCPU, 1024 MB, Ubuntu 8.10)."""

    vcpus: int = C.DEFAULT_VM_VCPUS
    memory: int = C.DEFAULT_VM_MEMORY
    #: Disk image size on the NFS server (only affects boot/clone times).
    image_size: int = 4 * C.GiB

    def __post_init__(self) -> None:
        _require_finite(self, "vcpus", "memory", "image_size")
        if self.vcpus < 1:
            raise ConfigError(f"vcpus must be >= 1, got {self.vcpus}")
        if self.memory < 64 * C.MiB:
            raise ConfigError(f"memory must be >= 64 MiB, got {self.memory}")
        if self.image_size <= 0:
            raise ConfigError("image_size must be positive")


@dataclass(frozen=True)
class HostConfig:
    """Shape of one physical machine (paper: Dell T710)."""

    cores: int = C.DEFAULT_HOST_CORES
    dram: int = C.DEFAULT_HOST_DRAM
    nic_bandwidth: float = C.GBIT_ETHERNET_BPS
    bridge_bandwidth: float = C.VIRTUAL_BRIDGE_BPS
    netback_bandwidth: float = C.XEN_NETBACK_BPS
    disk_bandwidth: float = C.DISK_BPS
    #: DRAM reserved for the hypervisor / Domain-0.
    dom0_reserved: int = 2 * C.GiB

    def __post_init__(self) -> None:
        _require_finite(self, "cores", "dram", "nic_bandwidth",
                        "bridge_bandwidth", "netback_bandwidth",
                        "disk_bandwidth", "dom0_reserved")
        if self.cores < 1:
            raise ConfigError(f"cores must be >= 1, got {self.cores}")
        if self.dram <= self.dom0_reserved:
            raise ConfigError("dram must exceed the Domain-0 reservation")
        for name in ("nic_bandwidth", "bridge_bandwidth", "netback_bandwidth",
                     "disk_bandwidth"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")

    @property
    def guest_dram(self) -> int:
        """DRAM available to guests."""
        return self.dram - self.dom0_reserved


@dataclass(frozen=True)
class HadoopConfig:
    """Hadoop cluster parameters (the paper's Hadoop Module knobs)."""

    dfs_replication: int = C.DEFAULT_DFS_REPLICATION
    dfs_block_size: int = C.DEFAULT_DFS_BLOCK_SIZE
    map_tasks_maximum: int = C.DEFAULT_MAP_SLOTS
    reduce_tasks_maximum: int = C.DEFAULT_REDUCE_SLOTS
    #: Run the combiner on map outputs when the job provides one.
    use_combiner: bool = True
    #: Prefer data-local map scheduling (node-local > host-local > remote).
    locality_aware: bool = True
    #: Launch backup copies of straggling maps on idle trackers (Hadoop's
    #: mapred.map.tasks.speculative.execution; cf. Zaharia et al., OSDI'08,
    #: the paper's related work on MapReduce in virtualized environments).
    speculative_execution: bool = False
    #: A map is a straggler once it has run this multiple of the mean
    #: completed-map duration.
    speculative_slowdown: float = 1.5
    #: Fixed per-task startup cost (JVM launch stand-in), seconds.
    task_startup_s: float = C.TASK_STARTUP_S
    #: Fixed per-job submission/cleanup overhead, seconds.
    job_overhead_s: float = C.JOB_OVERHEAD_S
    #: TaskTracker heartbeat interval, seconds.
    heartbeat_s: float = C.HEARTBEAT_S
    #: Maximum concurrent shuffle fetch streams per reduce task.
    shuffle_parallel_copies: int = 5
    #: Bytes every TaskTracker localizes per job (job.jar + config + side
    #: files; a Mahout job jar is ~16 MB).  This is why tiny jobs get
    #: slower as the cluster grows — Fig. 6's scaling mechanism.
    job_localization_bytes: int = 16 * C.MiB
    #: Heartbeat threshold for declaring a TaskTracker dead: the JobTracker
    #: waits ``missed_heartbeats_dead * heartbeat_s`` after a worker VM
    #: fails before it reaps the tracker and reschedules its tasks
    #: (Hadoop's mapred.tasktracker.expiry.interval).
    missed_heartbeats_dead: int = 3
    #: Maximum attempts per task before the whole job is failed (Hadoop's
    #: mapred.map.max.attempts / mapred.reduce.max.attempts).
    max_task_retries: int = 4
    #: Base delay before re-queueing a failed task attempt; doubles each
    #: retry (capped exponential backoff).
    retry_backoff_s: float = 1.0
    #: Ceiling on the exponential retry backoff, seconds.
    retry_backoff_cap_s: float = 30.0
    #: A tracker that produced this many task failures is blacklisted for
    #: the rest of the job: its slots stop pulling work (Hadoop's
    #: mapred.max.tracker.failures).
    tracker_blacklist_failures: int = 3
    #: Delay between detecting a dead datanode and starting the background
    #: re-replication sweep (coalesces correlated failures into one sweep).
    replication_repair_delay_s: float = 5.0

    def __post_init__(self) -> None:
        _require_finite(self, "dfs_replication", "dfs_block_size",
                        "map_tasks_maximum", "reduce_tasks_maximum",
                        "speculative_slowdown", "task_startup_s",
                        "job_overhead_s", "heartbeat_s",
                        "shuffle_parallel_copies", "job_localization_bytes",
                        "missed_heartbeats_dead", "max_task_retries",
                        "retry_backoff_s", "retry_backoff_cap_s",
                        "tracker_blacklist_failures",
                        "replication_repair_delay_s")
        if self.dfs_replication < 1:
            raise ConfigError("dfs.replication must be >= 1")
        if self.dfs_block_size < 1 * C.MiB:
            raise ConfigError("dfs.block.size must be >= 1 MiB")
        if self.map_tasks_maximum < 1 or self.reduce_tasks_maximum < 1:
            raise ConfigError("task slot maxima must be >= 1")
        if self.shuffle_parallel_copies < 1:
            raise ConfigError("shuffle_parallel_copies must be >= 1")
        if self.job_localization_bytes < 0:
            raise ConfigError("job_localization_bytes must be >= 0")
        if self.speculative_slowdown <= 1.0:
            raise ConfigError("speculative_slowdown must be > 1.0")
        for name in ("task_startup_s", "job_overhead_s", "heartbeat_s",
                     "retry_backoff_s", "retry_backoff_cap_s",
                     "replication_repair_delay_s"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        if self.missed_heartbeats_dead < 1:
            raise ConfigError("missed_heartbeats_dead must be >= 1")
        if self.max_task_retries < 1:
            raise ConfigError("max_task_retries must be >= 1")
        if self.tracker_blacklist_failures < 1:
            raise ConfigError("tracker_blacklist_failures must be >= 1")

    def replace(self, **kwargs) -> "HadoopConfig":
        """Return a copy with the given fields changed (tuner entry point)."""
        return dataclasses.replace(self, **kwargs)


@dataclass(frozen=True)
class TopologySpec:
    """Declarative datacenter shape: ``racks × hosts_per_rack × vms_per_host``.

    The paper's testbed is ``TopologySpec(1, 2, 8)`` — one rack of two
    hosts, eight VMs each.  Single-rack topologies add no ToR/aggregation
    resources, so they are bit-identical to the flat two-host model.
    Parse the CLI form with :meth:`parse` (``"25x5x8"`` = 25 racks × 5
    hosts × 8 VMs = 1,000 VMs).
    """

    racks: int = 1
    hosts_per_rack: int = 2
    vms_per_host: int = 8
    #: Per-tier bandwidth overrides; ``None`` keeps the HostConfig /
    #: constants defaults.
    nic_bandwidth: "float | None" = None
    bridge_bandwidth: "float | None" = None
    tor_bandwidth: float = C.TOR_SWITCH_BPS
    agg_bandwidth: float = C.AGG_UPLINK_BPS

    def __post_init__(self) -> None:
        for name in ("racks", "hosts_per_rack", "vms_per_host"):
            if not isinstance(getattr(self, name), int):
                raise ConfigError(f"{name} must be an int, got "
                                  f"{getattr(self, name)!r}")
        if self.racks < 1 or self.hosts_per_rack < 1 or self.vms_per_host < 1:
            raise ConfigError("racks, hosts_per_rack and vms_per_host "
                              "must all be >= 1")
        for name in ("nic_bandwidth", "bridge_bandwidth", "tor_bandwidth",
                     "agg_bandwidth"):
            if getattr(self, name) is not None:
                _require_finite(self, name)
                if getattr(self, name) <= 0:
                    raise ConfigError(f"{name} must be positive")

    @property
    def n_hosts(self) -> int:
        return self.racks * self.hosts_per_rack

    @property
    def n_vms(self) -> int:
        return self.n_hosts * self.vms_per_host

    @property
    def multi_rack(self) -> bool:
        return self.racks > 1

    def rack_of_host(self, host_index: int) -> int:
        """Hosts are numbered contiguously within racks: host *i* lives
        in rack ``i // hosts_per_rack``."""
        if host_index < 0 or host_index >= self.n_hosts:
            raise ConfigError(f"host index {host_index} out of range "
                              f"(topology has {self.n_hosts} hosts)")
        return host_index // self.hosts_per_rack

    @classmethod
    def parse(cls, text: str, **overrides) -> "TopologySpec":
        """Parse the shared CLI form ``RxHxV`` (racks × hosts/rack ×
        VMs/host), e.g. ``"2x8x4"``."""
        parts = text.lower().split("x")
        if len(parts) != 3:
            raise ConfigError(
                f"topology {text!r} must be RxHxV (racks x hosts-per-rack "
                f"x vms-per-host), e.g. 2x8x4")
        if not all(p.isascii() and p.isdigit() for p in parts):
            raise ConfigError(f"topology {text!r}: parts must be ASCII "
                              "digits (RxHxV, e.g. 2x8x4)")
        racks, hosts, vms = (int(p) for p in parts)
        return cls(racks=racks, hosts_per_rack=hosts, vms_per_host=vms,
                   **overrides)

    def spec_str(self) -> str:
        return f"{self.racks}x{self.hosts_per_rack}x{self.vms_per_host}"


@dataclass(frozen=True)
class PlatformConfig:
    """Whole-platform layout: hosts, VM template, Hadoop config, NFS, seed.

    ``topology`` is the declarative multi-rack shape; when given it
    drives ``n_hosts`` (racks × hosts_per_rack) and the datacenter wires
    racks/ToR/aggregation accordingly.  Without it the platform is the
    paper's flat ``n_hosts`` testbed.
    """

    n_hosts: int = 2
    host: HostConfig = field(default_factory=HostConfig)
    vm: VMConfig = field(default_factory=VMConfig)
    hadoop: HadoopConfig = field(default_factory=HadoopConfig)
    nfs_bandwidth: float = C.NFS_BPS
    seed: int = 0
    trace: bool = True
    topology: "TopologySpec | None" = None

    def __post_init__(self) -> None:
        if self.topology is not None:
            object.__setattr__(self, "n_hosts", self.topology.n_hosts)
        _require_finite(self, "n_hosts", "nfs_bandwidth")
        if self.n_hosts < 1:
            raise ConfigError("n_hosts must be >= 1")
        if self.nfs_bandwidth <= 0:
            raise ConfigError("nfs_bandwidth must be positive")
