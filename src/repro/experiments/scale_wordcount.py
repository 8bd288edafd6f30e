"""Scale — wordcount on a racked datacenter (the ``--topology`` consumer).

The paper's testbed stops at 16 VMs on two flat hosts; this experiment
answers "what does that workload look like at rack scale".  It provisions
one hadoop virtual cluster per layout over the declared
``racks x hosts_per_rack x vms_per_host`` topology and reports elapsed
time plus the map-task locality mix (node / host / rack / remote) — the
rack tier makes the scheduler's locality hierarchy and HDFS's rack-aware
block placement directly observable from the CLI:

.. code-block:: console

   $ vhadoop scale --topology 5x5x4        # 100 VMs over 5 racks
"""

from __future__ import annotations

from typing import Union

from repro import constants as C
from repro.config import TopologySpec
from repro.datasets.text import generate_corpus
from repro.experiments.common import (ExperimentResult, make_platform,
                                      racked_cluster)
from repro.workloads.wordcount import (lines_as_records, scaled_line_sizeof,
                                       wordcount_job)

#: Materialize 1/SCALE of the corpus; simulate the full byte volume.
VOLUME_SCALE = 100

#: Two racks of two hosts — the smallest shape where every tier (bridge,
#: NIC, ToR, aggregation) carries traffic.
DEFAULT_TOPOLOGY = "2x2x4"

#: Map-task locality classes, nearest first (the table's ``*_pct`` order).
LOCALITIES = ("node", "host", "rack", "remote")


def run(seed: int = 0, quick: bool = False,
        topology: Union[TopologySpec, str, None] = None) -> ExperimentResult:
    topo = (TopologySpec.parse(topology) if isinstance(topology, str)
            else topology) or TopologySpec.parse(DEFAULT_TOPOLOGY)
    size_mb = 32 if quick else 128
    result = ExperimentResult(
        experiment_id="scale",
        title=f"Wordcount at rack scale ({topo.spec_str()} topology, "
              f"{size_mb} MB input)",
        columns=("layout", "vms", "racks", "elapsed_s",
                 "node_pct", "host_pct", "rack_pct", "remote_pct"))
    dominant = []
    for layout in ("packed", "spread"):
        platform = make_platform(seed=seed, topology=topo)
        cluster = racked_cluster(platform, layout=layout)
        lines = generate_corpus(
            size_mb * C.MB // VOLUME_SCALE,
            rng=platform.datacenter.rng.fresh("datasets/corpus"))
        platform.upload(cluster, "/scale/input", lines_as_records(lines),
                        sizeof=scaled_line_sizeof(VOLUME_SCALE),
                        timed=False)
        job = wordcount_job("/scale/input", "/scale/output",
                            n_reduces=max(2, topo.racks),
                            volume_scale=VOLUME_SCALE)
        report = platform.run_job(cluster, job)
        frac = report.locality_fractions()
        pct = {kind: 100.0 * frac.get(kind, 0.0) for kind in LOCALITIES}
        kind = max(pct, key=pct.get)
        dominant.append(f"{layout} {kind} ({pct[kind]:.1f}%)")
        result.add(layout, cluster.n_nodes, len(cluster.racks_used()),
                   report.elapsed, *pct.values())
    result.note(f"topology {topo.spec_str()}: {topo.n_hosts} hosts, "
                f"{topo.n_vms} VM slots; dominant map-input locality: "
                + ", ".join(dominant))
    return result
