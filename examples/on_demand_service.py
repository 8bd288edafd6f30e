"""On-demand elastic vHadoop service (the paper's future work).

Three tenants submit jobs to a shared two-machine datacenter:

* a Wordcount over a text corpus,
* a Naive Bayes spam classifier training + evaluation run,
* an item-based recommender over movie preferences.

The Wordcount goes through the cluster-per-job service backend: it
provisions a fresh hadoop virtual cluster for the request (booting VMs
from the NFS image store), runs the job and tears the cluster down.  The
example asserts its own scenario: the word counts match a plain Python
count, and teardown hands every byte of DRAM back to the datacenter.

Run:  python examples/on_demand_service.py
"""

import collections

from repro import PlatformConfig, VHadoopPlatform
from repro.cloud import PerJobClusterBackend, ServiceRequest
from repro.datasets.text import generate_corpus
from repro.ml import (ClusterExecutor, ItemCooccurrenceRecommender,
                      NaiveBayesDriver)
from repro.platform import ClusterSpec
from repro.workloads.wordcount import (lines_as_records, line_record_sizeof,
                                       wordcount_job)

TRAIN_DOCS = [
    (0, ("spam", ("win", "money", "now", "free"))),
    (1, ("spam", ("free", "offer", "click"))),
    (2, ("spam", ("win", "free", "prize"))),
    (3, ("ham", ("quarterly", "report", "attached"))),
    (4, ("ham", ("team", "meeting", "monday"))),
    (5, ("ham", ("please", "review", "the", "report"))),
]
TEST_DOCS = [(10, ("free", "prize", "now")), (11, ("meeting", "report"))]

PREFS = [(("u1", "matrix"), 5.0), (("u1", "inception"), 4.0),
         (("u2", "matrix"), 4.0), (("u2", "inception"), 5.0),
         (("u2", "tenet"), 4.0), (("u3", "matrix"), 5.0)]


def main() -> None:
    platform = VHadoopPlatform(PlatformConfig(n_hosts=2, seed=11))
    service = PerJobClusterBackend(platform)
    machines = platform.datacenter.machines
    free_before = sum(machine.dram_free for machine in machines)

    # Tenant 1: Wordcount as a service request on a cluster of its own.
    corpus = generate_corpus(500_000,
                             rng=platform.datacenter.rng.stream("svc"))
    wc = service.serve(ServiceRequest(
        name="wordcount",
        n_nodes=6,
        records=lines_as_records(corpus),
        make_job=lambda inp, out: wordcount_job(inp, out, n_reduces=2),
        sizeof=line_record_sizeof))
    platform.sim.run_until(wc)
    o = wc.value
    print(f"[wordcount]   waited {o.queue_wait_s:.1f}s, "
          f"total {o.total_s:.1f}s (incl. boot), "
          f"{len(o.output)} distinct words")
    expected = collections.Counter(" ".join(corpus).split())
    assert dict(o.output) == expected, "word counts differ"
    free_after = sum(machine.dram_free for machine in machines)
    assert free_after == free_before, "teardown kept DRAM"

    # Tenants 2 and 3 use long-lived clusters through the platform API —
    # classification and recommendation, the library's other categories.
    nb_cluster = platform.provision_cluster("nb", ClusterSpec.single_host(4))
    platform.upload(nb_cluster, "/train", TRAIN_DOCS, timed=False)
    platform.upload(nb_cluster, "/test", TEST_DOCS, timed=False)
    executor = ClusterExecutor(platform.runner(nb_cluster), nb_cluster)
    driver = NaiveBayesDriver()
    model, train_s = driver.train(executor, "/train")
    predictions, classify_s = driver.classify(executor, model, "/test")
    print(f"[classifier]  trained in {train_s:.1f}s, classified in "
          f"{classify_s:.1f}s -> {predictions}")

    rec_cluster = platform.provision_cluster("rec", ClusterSpec.single_host(4))
    platform.upload(rec_cluster, "/prefs", PREFS, timed=False)
    rec_exec = ClusterExecutor(platform.runner(rec_cluster), rec_cluster)
    result = ItemCooccurrenceRecommender(top_n=2).run(rec_exec, "/prefs")
    print(f"[recommender] {result.runtime_s:.1f}s; "
          f"u3 -> {[item for item, _s in result.for_user('u3')]}")


if __name__ == "__main__":
    main()
