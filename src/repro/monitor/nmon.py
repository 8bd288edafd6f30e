"""The distributed nmon monitor.

A :class:`NmonMonitor` attaches to a set of VMs and samples, every
``interval`` simulated seconds, the four resource classes nmon reports:

* **cpu** — the VM's VCPU utilization (load fraction on its VCPU resource);
* **memory** — resident memory fraction (static per VM in this model, plus
  the activity-driven working set);
* **disk** — bytes of virtual-disk I/O since the previous sample;
* **net** — bytes sent/received since the previous sample.

Samples are plain records; the analyser (:mod:`repro.monitor.analyser`)
aggregates them.  The monitor samples from a
:class:`~repro.sim.kernel.PeriodicCall`, so sampling is correctly
interleaved with the workload.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro.errors import MonitorError
from repro.sim.kernel import PeriodicCall
from repro.virt.vm import VirtualMachine


@dataclass(frozen=True)
class NmonSample:
    """One observation of one VM."""

    time: float
    vm: str
    cpu_util: float          # 0..1 of the VM's VCPU allocation
    memory_fraction: float   # 0..1 of configured guest memory
    disk_bytes_delta: float  # since previous sample
    net_tx_delta: float
    net_rx_delta: float
    activity: int            # running tasks


@dataclass
class NodeSeries:
    """All samples of one VM, in time order."""

    vm: str
    samples: list[NmonSample] = field(default_factory=list)

    def column(self, name: str) -> list[float]:
        return [getattr(s, name) for s in self.samples]

    def __len__(self) -> int:
        return len(self.samples)


#: Memory fraction of an idle guest (kernel + daemons + Hadoop services).
_BASE_MEMORY_FRACTION = 0.35
#: Additional memory fraction per running task (JVM heap).
_TASK_MEMORY_FRACTION = 0.18


class NmonMonitor:
    """Samples a group of VMs on a fixed interval.

    The cluster's telemetry facade (``cluster.telemetry.monitor`` /
    ``cluster.telemetry.start_monitor()``) owns one and mirrors its
    samples into the metrics registry; that is the documented route.
    """

    def __init__(self, vms: Sequence[VirtualMachine], interval: float = 5.0):
        if not vms:
            raise MonitorError("monitor needs at least one VM")
        if interval <= 0:
            raise MonitorError(f"interval must be > 0, got {interval}")
        self.vms = list(vms)
        self.interval = float(interval)
        self.series: dict[str, NodeSeries] = {
            vm.name: NodeSeries(vm.name) for vm in self.vms}
        #: Per-sample hook (the telemetry facade's metrics mirror).
        self.on_sample: Optional[Callable[[NmonSample], None]] = None
        self._last_disk: dict[str, float] = {}
        self._last_tx: dict[str, float] = {}
        self._last_rx: dict[str, float] = {}
        self._loop = PeriodicCall(self.vms[0].sim, self._tick)

    # -- control -------------------------------------------------------------
    @property
    def running(self) -> bool:
        return self._loop.running

    def start(self) -> None:
        """Begin sampling (idempotent)."""
        self._loop.start()

    def stop(self) -> None:
        """Stop sampling (idempotent): no further samples, nothing armed."""
        self._loop.stop()

    # -- sampling -----------------------------------------------------------
    def _tick(self) -> float:
        self.sample_now(self.vms[0].sim.now)
        return self.interval

    def sample_now(self, now: float) -> None:
        """Take one sample of every VM (also usable without start())."""
        # Flows opened earlier in this instant have no rate until the
        # engine's end-of-instant flush; sample the settled loads.
        self.vms[0].fss.settle()
        for vm in self.vms:
            node = vm.node
            tx = node.tx_bytes if node else 0.0
            rx = node.rx_bytes if node else 0.0
            sample = NmonSample(
                time=now,
                vm=vm.name,
                cpu_util=vm.vcpu.utilization,
                memory_fraction=min(
                    1.0, _BASE_MEMORY_FRACTION
                    + _TASK_MEMORY_FRACTION * vm.activity),
                disk_bytes_delta=vm.disk_bytes
                - self._last_disk.get(vm.name, 0.0),
                net_tx_delta=tx - self._last_tx.get(vm.name, 0.0),
                net_rx_delta=rx - self._last_rx.get(vm.name, 0.0),
                activity=vm.activity,
            )
            self.series[vm.name].samples.append(sample)
            self._last_disk[vm.name] = vm.disk_bytes
            self._last_tx[vm.name] = tx
            self._last_rx[vm.name] = rx
            if self.on_sample is not None:
                self.on_sample(sample)

    # -- access -----------------------------------------------------------------
    def node(self, vm_name: str) -> NodeSeries:
        try:
            return self.series[vm_name]
        except KeyError:
            raise MonitorError(f"no series for VM {vm_name!r}") from None

    def all_samples(self) -> list[NmonSample]:
        out: list[NmonSample] = []
        for series in self.series.values():
            out.extend(series.samples)
        out.sort(key=lambda s: (s.time, s.vm))
        return out
