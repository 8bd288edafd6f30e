"""Smoke-sized workloads through the real subprocess path.

The ``smoke`` size table keeps all of this under ~25 s; results made
with it are stamped ``mode: smoke`` and refused by ``compare``.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import bench
import compare
import spec

E2E = Path(__file__).resolve().parent.parent


@pytest.fixture()
def lock():
    with bench.BenchLock():
        yield


def test_traced_and_untraced_ladder_digests_are_equal(lock):
    entry = bench.measure_workload("ladder500", seed=3, size="smoke",
                                   reps=1, traced=True)
    assert entry["checks"]["failed"] == 0, entry["checks"]["failures"]
    rep, traced = entry["reps"][0], entry["traced"]
    assert rep["digest"] == traced["digest"] == entry["digest"]
    assert rep["hashseed"] != traced["hashseed"]
    layers = entry["per_layer"]
    # The smoke ladder is 1x2x8 = 16 VMs running three MR jobs.
    assert layers["platform.vms_provisioned"] == 16
    assert layers["mapreduce.jobs"] == 3
    assert layers["sim.kernel.step_self_s"] > 0
    assert layers["sim.fairshare.api_self_s"] > 0
    assert layers["mapreduce.functional_self_s"] > 0
    assert layers["trace.overhead_ratio"] > 0
    assert 0 <= layers["trace.unattributed_share"] < 1
    # Set-up is traced too: provisioning and upload happen only there.
    in_setup = entry["setup_self_s"]
    assert in_setup["platform.provision_self_s"] \
        == layers["platform.provision_self_s"] > 0
    assert in_setup["platform.upload_self_s"] > 0
    assert 0 < in_setup["datasets.generate_self_s"] \
        < layers["datasets.generate_self_s"]       # corpus there, teragen here
    # Self times less their set-up part partition the traced timed region:
    # what no wrapped entry point covers is the root's own share.
    attributed = sum(v for k, v in layers.items() if k.endswith("_self_s")) \
        - sum(in_setup.values())
    assert attributed == pytest.approx(
        traced["wall_s"] * (1 - layers["trace.unattributed_share"]),
        rel=0.02)
    # ``wall_s`` is the timed region at reference speed, less the
    # meter's own spins; the self times are scaled to match.
    assert rep["wall_s"] == pytest.approx(
        rep["raw_wall_s"] / rep["host_slowdown"], rel=0.05)


def test_every_workload_runs_clean_at_smoke_size(tmp_path):
    out = tmp_path / "smoke.json"
    code = bench.main(["run", "--smoke", "--reps", "1", "--out", str(out)])
    doc = json.loads(out.read_text())
    assert doc["mode"] == "smoke" and doc["env"]["nproc"] >= 1
    assert set(doc["workloads"]) == set(spec.WORKLOAD_NAMES)
    for name, entry in doc["workloads"].items():
        assert entry["checks"]["failed"] == 0, (name, entry["checks"])
        assert set(entry["e2e"]) == set(spec.E2E_BY_NAME), name
        assert all(s["median"] > 0 for s in entry["e2e"].values()), name
    assert code == 0
    assert doc["workloads"]["fuzz_sharded"]["digest"] \
        == doc["workloads"]["fuzz_serial"]["digest"]
    assert doc["workloads"]["service_burst"]["per_layer"][
        "sim.fairshare.rebalances"] == 0
    # One inline worker cannot beat itself; two may or may not at this size.
    assert 0.5 < doc["workloads"]["fuzz_serial"]["per_layer"][
        "parallel.speedup"] <= 1.0
    assert set(doc["probes"]) == {m.name for m in spec.PER_LAYER
                                  if ".probe_" in m.name}
    with pytest.raises(compare.ResultError):
        compare.load_result(str(out))


def test_a_raising_workload_is_a_recorded_failure_not_an_abort(lock):
    rep = bench.run_rep("ladder500", seed=0, size="no-such-size", index=0)
    assert "KeyError" in rep["error"]
    entry = bench.fold_workload("ladder500", [rep], [], None)
    assert entry["checks"]["failed"] == entry["checks"]["attempted"] >= 1
    assert entry["e2e"] == {}


def test_a_rep_that_outlives_its_timeout_is_killed_and_recorded(lock):
    rep = bench._spawn(["_rep", "--workload", "ml_clustering", "--seed", "0",
                        "--size", "smoke", "--trace", "0"], hashseed=1,
                       timeout_s=0.2)
    assert rep == {"error": "timed out after 0 s"}


def test_a_second_bench_process_refuses_to_start(lock):
    proc = subprocess.run(
        [sys.executable, str(E2E / "bench.py"), "run", "--workload",
         "ladder500", "--seed", "0", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "another benchmark run" in proc.stderr
    assert proc.stdout.strip() == ""
