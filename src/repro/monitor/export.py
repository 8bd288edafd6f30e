"""nmon-format export and parsing.

The real workflow the paper describes is file-based: ``nmon`` writes
section-per-metric CSV files on every node, and the ``nmon analyser``
workbook reads them back to draw graphs.  This module serializes one VM's
raw-tier history from a :class:`~repro.telemetry.timeseries.TimeSeriesStore`
into the same sectioned layout (one snapshot per raw-tier bucket) and
parses it back into a store, so monitoring data can leave the simulation
and re-enter the analyser:

::

    AAA,host,vm-03
    ZZZZ,T0001,0.00
    CPU_ALL,T0001,37.50
    MEM,T0001,53.00
    DISKREAD,T0001,10485760
    NET,T0001,524288,1048576
    ...

(A simplified but faithful subset of nmon's sections: snapshot markers
``ZZZZ``, total CPU, memory, disk bytes, net tx/rx.)
"""

from __future__ import annotations

from repro.errors import MonitorError
from repro.monitor.nmon import SERIES, record_sample, vm_buckets
from repro.telemetry.timeseries import TimeSeriesStore


def write_nmon(store: TimeSeriesStore, vm: str) -> str:
    """Serialize one VM's raw-tier buckets into nmon-style sectioned CSV.

    Each bucket is one snapshot: gauges are its mean, byte deltas its
    total, the time its last sample's.  A bucket holding more than one
    sample (the monitor restarted, or ``sample_now`` was called, inside
    one ``step``) has no single snapshot, so it raises
    :class:`MonitorError` rather than writing fewer snapshots than samples.
    """
    snapshots = list(zip(*(vm_buckets(store, vm, name) for name in SERIES)))
    if not snapshots:
        raise MonitorError(f"no samples to export for {vm}")
    for cpu, *_ in snapshots:
        if cpu.count > 1:
            start = cpu.index * store.step
            raise MonitorError(
                f"{vm} has {cpu.count} samples in the interval "
                f"[{start:g}, {start + store.step:g}); nmon export needs "
                f"one sample per interval")
    lines = [f"AAA,host,{vm}", f"AAA,samples,{len(snapshots)}"]
    for index, (cpu, mem, tasks, disk, tx, rx) in enumerate(snapshots,
                                                            start=1):
        tag = f"T{index:04d}"
        lines.append(f"ZZZZ,{tag},{cpu.last_at:.3f}")
        lines.append(f"CPU_ALL,{tag},{cpu.mean * 100.0:.2f}")
        lines.append(f"MEM,{tag},{mem.mean * 100.0:.2f}")
        lines.append(f"DISKREAD,{tag},{disk.total:.0f}")
        lines.append(f"NET,{tag},{tx.total:.0f},{rx.total:.0f}")
        lines.append(f"PROC,{tag},{tasks.mean:.0f}")
    return "\n".join(lines) + "\n"


def parse_nmon(text: str, store: TimeSeriesStore) -> str:
    """Parse nmon-style CSV, record its snapshots into ``store`` in file
    order, and return the VM name.

    Raises :class:`MonitorError`, before recording anything, on a missing
    ``AAA,host`` header, a truncated or non-numeric line, a snapshot
    lacking a required section, or an ``AAA,samples`` count that
    disagrees with the snapshots found.
    """
    vm = None
    declared_samples = None
    snapshots: dict[str, dict] = {}
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        fields = line.split(",")
        section = fields[0]
        try:
            if section == "AAA":
                if fields[1] == "host":
                    vm = fields[2]
                elif fields[1] == "samples":
                    declared_samples = int(fields[2])
                continue
            snap = snapshots.setdefault(fields[1], {})
            if section == "ZZZZ":
                snap["time"] = float(fields[2])
            elif section == "CPU_ALL":
                snap["cpu"] = float(fields[2]) / 100.0
            elif section == "MEM":
                snap["mem"] = float(fields[2]) / 100.0
            elif section == "DISKREAD":
                snap["disk"] = float(fields[2])
            elif section == "NET":
                snap["tx"] = float(fields[2])
                snap["rx"] = float(fields[3])
            elif section == "PROC":
                snap["activity"] = int(fields[2])
        except (IndexError, ValueError):
            raise MonitorError(
                f"malformed nmon line {number}: {line!r}") from None
    if vm is None:
        raise MonitorError("nmon text has no AAA,host header")
    samples = []
    for tag, snap in snapshots.items():
        try:
            samples.append((snap["time"], (
                snap["cpu"], snap["mem"], snap.get("activity", 0),
                snap["disk"], snap["tx"], snap["rx"])))
        except KeyError as missing:
            raise MonitorError(
                f"snapshot {tag} is missing section {missing}") from None
    if declared_samples is not None and declared_samples != len(samples):
        raise MonitorError(
            f"nmon header declares {declared_samples} samples but "
            f"{len(samples)} snapshots were found")
    for at, values in samples:
        record_sample(store, vm, at, values)
    return vm
