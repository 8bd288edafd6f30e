"""Shared experiment plumbing: result structure, table rendering, and the
standard 16-node cluster builders used across the figures."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Sequence, Union

from repro.config import HadoopConfig, PlatformConfig, TopologySpec, VMConfig
from repro.platform import ClusterSpec, VHadoopPlatform
from repro.platform.cluster import HadoopVirtualCluster


@dataclass
class ExperimentResult:
    """Rows of one reproduced table/figure."""

    experiment_id: str          # e.g. "fig2", "table2"
    title: str
    columns: tuple
    rows: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    #: Free-form artifacts (e.g. fig8's ASCII panels).
    artifacts: dict = field(default_factory=dict)

    def add(self, *row: Any) -> None:
        if len(row) != len(self.columns):
            raise ValueError(
                f"{self.experiment_id}: row width {len(row)} != "
                f"{len(self.columns)} columns")
        self.rows.append(tuple(row))

    def column(self, name: str) -> list:
        index = self.columns.index(name)
        return [row[index] for row in self.rows]

    def note(self, text: str) -> None:
        self.notes.append(text)


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def format_table(result: ExperimentResult) -> str:
    """Render a result as an aligned text table."""
    header = [str(c) for c in result.columns]
    body = [[_fmt(v) for v in row] for row in result.rows]
    widths = [max(len(header[i]), *(len(r[i]) for r in body))
              if body else len(header[i]) for i in range(len(header))]
    def line(cells):
        return "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(cells))
    out = [f"== {result.experiment_id}: {result.title} ==",
           line(header),
           line(["-" * w for w in widths])]
    out.extend(line(r) for r in body)
    for note in result.notes:
        out.append(f"note: {note}")
    return "\n".join(out)


# -- standard setups ---------------------------------------------------------

def make_platform(seed: int = 0,
                  topology: Union[TopologySpec, str, None] = None,
                  **overrides) -> VHadoopPlatform:
    """The experiment testbed.

    Defaults to the paper's two-host machine pair; pass ``topology`` (a
    :class:`~repro.config.TopologySpec` or its ``"RxHxV"`` string form,
    the CLI's shared ``--topology`` flag) to build a racked datacenter
    instead.
    """
    if topology is None:
        return VHadoopPlatform(PlatformConfig(n_hosts=2, seed=seed,
                                              **overrides))
    topo = (TopologySpec.parse(topology) if isinstance(topology, str)
            else topology)
    return VHadoopPlatform(PlatformConfig(topology=topo, seed=seed,
                                          **overrides))


def add_topology_argument(parser) -> None:
    """Install the one shared topology knob: ``--topology RxHxV``.

    Every scale-aware entry point (the experiment CLI, the perf bench)
    parses rack shapes through this flag and
    :meth:`TopologySpec.parse <repro.config.TopologySpec.parse>` — there
    are deliberately no per-experiment ``--vms``/``--hosts`` knobs.
    """
    parser.add_argument(
        "--topology", metavar="RxHxV", type=TopologySpec.parse, default=None,
        help="racks x hosts_per_rack x vms_per_host datacenter shape "
             "(e.g. 2x8x4) for the scale-aware experiments; default is "
             "the paper's flat two-host testbed")


def sixteen_node_cluster(platform: VHadoopPlatform, layout: str,
                         name: Optional[str] = None,
                         vm_config: Optional[VMConfig] = None,
                         hadoop_config: Optional[HadoopConfig] = None
                         ) -> HadoopVirtualCluster:
    """The paper's 16-node cluster (1 namenode + 15 datanodes) in the
    'normal' (one host) or 'cross-domain' (8 + 8) layout."""
    if layout == "normal":
        spec = ClusterSpec.single_host(16)
    elif layout == "cross-domain":
        spec = ClusterSpec.packed(16, hosts=2)
    else:
        raise ValueError(f"unknown layout {layout!r}")
    return platform.provision_cluster(
        name or f"hvc-{layout}", spec, vm_config=vm_config,
        hadoop_config=hadoop_config)


def scaled_cluster(platform: VHadoopPlatform, n_nodes: int,
                   name: Optional[str] = None,
                   hadoop_config: Optional[HadoopConfig] = None
                   ) -> HadoopVirtualCluster:
    """An n-node cluster balanced over both hosts (Figs. 6-7 scale 2 -> 16).

    Round-robin placement is how a real operator grows a virtual cluster on
    a two-machine testbed; it means the inter-node communication share that
    crosses the physical NICs grows with the cluster — the paper's
    "larger virtual cluster incurs more data communication" effect.
    """
    return platform.provision_cluster(
        name or f"hvc-{n_nodes}",
        ClusterSpec.spread(n_nodes, hosts=len(platform.datacenter.machines)),
        hadoop_config=hadoop_config)


def racked_cluster(platform: VHadoopPlatform, layout: str = "packed"
                   ) -> HadoopVirtualCluster:
    """A cluster filling the platform's declared rack topology.

    Requires a platform built with ``make_platform(topology=...)``.
    """
    topo = platform.config.topology
    if topo is None:
        raise ValueError("racked_cluster needs a platform built with a "
                         "topology (make_platform(topology='RxHxV'))")
    return platform.provision_cluster(
        f"hvc-{topo.spec_str()}", ClusterSpec.racked(topo, layout=layout))
