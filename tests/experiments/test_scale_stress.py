"""Scale stress: the simulator well beyond the paper's testbed.

The paper's 16-VM / 2-host platform is small; this test provisions a
64-node hadoop virtual cluster over 4 physical machines and pushes a 2 GB
Wordcount through it — demonstrating that the reproduction scales as a
*tool* (datacenters larger than the original testbed) and that the
qualitative behaviours persist at scale.
"""

from repro import constants as C
from repro.config import PlatformConfig
from repro.datasets.text import generate_corpus
from repro.platform import ClusterSpec, VHadoopPlatform
from repro.workloads.wordcount import (lines_as_records, scaled_line_sizeof,
                                       wordcount_job)

SCALE = 400


def test_64_node_cluster_2gb_wordcount():
    platform = VHadoopPlatform(PlatformConfig(n_hosts=4, seed=0))
    cluster = platform.provision_cluster(
        "big", ClusterSpec.spread(64, hosts=4))
    lines = generate_corpus(2 * C.GB // SCALE,
                            rng=platform.datacenter.rng.fresh("corpus"))
    platform.upload(cluster, "/in", lines_as_records(lines),
                    sizeof=scaled_line_sizeof(SCALE), timed=False)
    job = wordcount_job("/in", "/out", n_reduces=16, volume_scale=SCALE)
    report = platform.run_job(cluster, job)
    print(f"\n64-node / 4-host cluster, 2 GB input:")
    print(f"  elapsed          {report.elapsed:8.1f} simulated s")
    print(f"  maps/reduces     {report.n_maps} / {report.n_reduces}")
    print(f"  shuffle          {report.shuffle_bytes / 1e9:8.2f} GB")
    print(f"  map locality     {report.locality_fractions()}")
    assert cluster.n_nodes == 64
    assert len(cluster.hosts_used()) == 4
    assert report.n_maps >= 28  # 2 GB at 64 MiB blocks
    assert report.elapsed > 0
    # The functional result is still exact at scale.
    output = dict(platform.collect(cluster, report))
    assert sum(output.values()) > 0
    assert all(isinstance(count, int) and count > 0
               for count in output.values())
