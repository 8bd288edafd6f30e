"""Result-file schema round-trip, ``compare`` verdicts, spec hygiene."""

import io
import json
from pathlib import Path

import pytest

import bench
import compare
import spec

REPO = Path(__file__).resolve().parents[3]


def _stat(values):
    return bench._stats(list(values), "s")


def _entry(wall=(10.0, 10.1, 10.2), digest="abc", failed=0):
    return {
        "reps": [], "traced": None, "digest": digest, "digests": [digest],
        "checks": {"attempted": 5, "failed": failed,
                   "failures": ["x"] * failed},
        "e2e": {
            "wall_s": _stat(wall),
            "cpu_s": _stat(wall),
            "setup_s": _stat([1.0, 1.0, 1.0]),
            "peak_rss_mb": _stat([100.0, 100.0, 100.0]),
            "work_per_s": _stat([100.0 / w for w in wall]),
            "sim_headline_s": _stat([500.0, 500.0, 500.0]),
        },
        "per_layer": {"sim.kernel.events": 1000,
                      "sim.kernel.step_self_s": 1.0},
    }


def _doc(**entries):
    return {"schema": 1, "mode": "full", "seed": 0, "reps": 3,
            "env": {"nproc": 2}, "workloads": entries, "probes": {},
            "derived": {}}


WALL = spec.E2E_BY_NAME["wall_s"]
#: A slowdown clearly beyond the bound, whatever the bound is.
SLOW = 1.0 + WALL.bound + 0.1


def test_verdict_ok_within_bound():
    word, delta = compare.verdict(WALL, _stat([10.0, 10.1, 10.2]),
                                  _stat([10.3, 10.4, 10.5]))
    assert word == "ok" and 0 < delta < WALL.bound


def test_verdict_worse_when_every_rep_is_beyond():
    word, delta = compare.verdict(
        WALL, _stat([10.0, 10.1, 10.2]),
        _stat([10.0 * SLOW, 10.1 * SLOW, 10.2 * SLOW]))
    assert word == "worse" and delta > WALL.bound


def test_verdict_unresolved_when_ranges_overlap_beyond_the_bound():
    # Median beyond the bound, but one B rep reads better than an A rep.
    word, delta = compare.verdict(WALL, _stat([10.0, 10.1, 10.2]),
                                  _stat([9.9, 10.1 * SLOW, 10.2 * SLOW]))
    assert word == "unresolved" and delta > WALL.bound


def test_verdict_unresolved_when_spread_hides_an_unchanged_median():
    word, delta = compare.verdict(WALL, _stat([8.0, 10.0, 12.0]),
                                  _stat([8.1, 10.1, 12.1]))
    assert word == "unresolved" and delta < WALL.bound


def test_verdict_ok_when_noisy_but_every_rep_is_better():
    word, delta = compare.verdict(WALL, _stat([10.0, 11.5, 13.0]),
                                  _stat([5.0, 6.0, 7.0]))
    assert word == "ok" and delta < 0


def test_higher_is_better_metrics_flip_direction():
    rate = spec.E2E_BY_NAME["work_per_s"]
    slow = 1.0 - rate.bound - 0.1
    word, delta = compare.verdict(
        rate, _stat([100.0, 101.0, 102.0]),
        _stat([100.0 * slow, 101.0 * slow, 102.0 * slow]))
    assert word == "worse"
    assert delta == pytest.approx(rate.bound + 0.1)


def test_same_seed_results_hold_deterministic_metrics_to_the_tight_bound():
    sim = spec.E2E_BY_NAME["sim_headline_s"]
    assert sim.same_seed_bound == 0.01 < sim.bound
    a, b = _stat([500.0] * 3), _stat([525.0] * 3)      # +5% simulated time
    assert compare.verdict(sim, a, b, same_seed=True)[0] == "worse"
    assert compare.verdict(sim, a, b, same_seed=False)[0] == "ok"
    assert compare.verdict(sim, b, a, same_seed=True)[0] == "ok"   # a gain
    slower = _entry()
    slower["e2e"]["sim_headline_s"] = b
    out = io.StringIO()
    assert compare.compare(_doc(ladder500=_entry()),
                           _doc(ladder500=slower), out=out) == 1
    other_seed = dict(_doc(ladder500=slower), seed=1)
    assert compare.compare(_doc(ladder500=_entry()), other_seed,
                           out=io.StringIO()) == 0


def test_compare_counts_worse_and_reports_drift_separately():
    a = _doc(ladder500=_entry())
    slow = _doc(ladder500=_entry(
        wall=(10.0 * SLOW, 10.1 * SLOW, 10.2 * SLOW), digest="zzz"))
    out = io.StringIO()
    assert compare.compare(a, slow, out=out) >= 2   # wall_s, cpu_s, ...
    text = out.getvalue()
    assert "worse" in text and "ladder500: abc -> zzz" in text
    out = io.StringIO()
    assert compare.compare(a, _doc(ladder500=_entry()), out=out) == 0
    assert "drift (reported, not scored): none" in out.getvalue()


def test_compare_scores_failed_checks_in_b():
    out = io.StringIO()
    assert compare.compare(_doc(ladder500=_entry()),
                           _doc(ladder500=_entry(failed=1)), out=out) == 1


def test_result_file_round_trips_and_smoke_results_are_refused(tmp_path):
    doc = _doc(ladder500=_entry(), service_burst=_entry())
    path = tmp_path / "a.json"
    path.write_text(json.dumps(doc))
    assert compare.load_result(str(path)) == doc
    assert compare.main(str(path), str(path)) == 0
    doc["mode"] = "smoke"
    smoke = tmp_path / "smoke.json"
    smoke.write_text(json.dumps(doc))
    with pytest.raises(compare.ResultError, match="smoke"):
        compare.load_result(str(smoke))
    assert compare.main(str(path), str(smoke)) == 2


def test_unknown_names_in_a_result_file_are_rejected():
    with pytest.raises(compare.ResultError, match="unknown workload"):
        compare.validate_result(_doc(nonesuch=_entry()))
    bad = _entry()
    bad["e2e"]["latency"] = _stat([1.0])
    with pytest.raises(compare.ResultError, match="unknown metric"):
        compare.validate_result(_doc(ladder500=bad))


def test_metric_names_and_units_are_valid_and_unique():
    names = [m.name for m in spec.END_TO_END + spec.PER_LAYER]
    assert len(names) == len(set(names)) and len(spec.PER_LAYER) <= 128
    with pytest.raises(ValueError):
        spec.Metric("bad name", "s", "lower")
    with pytest.raises(ValueError):
        spec.Metric("ok", "seconds per fortnight", "lower")
    assert max(m.bound for m in spec.END_TO_END) \
        == spec.E2E_BY_NAME["setup_s"].bound <= 0.25


def test_benchmark_json_repeats_the_spec():
    manifest = json.loads((REPO / "BENCHMARK.json").read_text())
    assert set(manifest) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert manifest["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in manifest["workloads"]] \
        == list(spec.DRIVER_WORKLOADS)
    assert manifest["run_seconds"] == spec.DRIVER_SECONDS
    assert manifest["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better,
         "bound": m.bound} for m in spec.END_TO_END]
    assert manifest["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in spec.PER_LAYER]


def test_fold_scores_a_crashed_rep_as_all_checks_failed():
    good = {"wall_s": 1.0, "cpu_s": 1.0, "setup_s": 0.5,
            "peak_rss_mb": 50.0, "work_units": 10, "sim_headline_s": 3.0,
            "digest": "d", "checks_attempted": 4, "failed_checks": [],
            "counts": {}}
    crashed = {"error": "Traceback ...\nRuntimeError: boom"}
    entry = bench.fold_workload("ladder500", [good, crashed], [0.5], None)
    assert entry["checks"]["attempted"] == 8
    assert entry["checks"]["failed"] == 4
    assert "boom" in entry["checks"]["failures"][0]
    assert entry["e2e"]["wall_s"]["n"] == 1


def test_fold_flags_digest_drift_between_reps_and_traced_mismatch():
    def rep(digest):
        return {"wall_s": 1.0, "raw_wall_s": 1.3, "cpu_s": 1.0,
                "setup_s": 0.5, "peak_rss_mb": 50.0, "work_units": 10,
                "sim_headline_s": 3.0, "digest": digest,
                "checks_attempted": 1, "failed_checks": [], "counts": {},
                "spans": {}, "setup_spans": {}}
    entry = bench.fold_workload("ladder500", [rep("a"), rep("b")],
                                [0.5, 0.5], rep("c"))
    failures = " ".join(entry["checks"]["failures"])
    assert "identical across reps" in failures
    assert "traced sim digest" in failures
    assert all("counts" not in r and "spans" not in r
               and "setup_spans" not in r
               for r in entry["reps"] + [entry["traced"]])
    assert entry["digest"] is None and entry["digests"] == ["a", "b"]
