"""Small-scale runs of every experiment harness, asserting the paper's
qualitative shapes (DESIGN.md §4)."""

import pytest

from repro.experiments import format_table
from repro.experiments.common import ExperimentResult
from repro.experiments import (fig2_wordcount, fig3_mrbench,
                               fig4_terasort_dfsio, fig5_migration,
                               fig6_synthetic_control,
                               fig7_display_clustering, fig8_cluster_visuals,
                               scale_wordcount, sched_policies,
                               table1_benchmarks, telemetry_demo)

pytestmark = pytest.mark.filterwarnings("ignore")


# --- result plumbing ---------------------------------------------------------

def test_experiment_result_row_width_checked():
    result = ExperimentResult("x", "t", columns=("a", "b"))
    result.add(1, 2)
    with pytest.raises(ValueError):
        result.add(1, 2, 3)
    assert result.column("b") == [2]


def test_format_table_renders():
    result = ExperimentResult("x", "t", columns=("a", "b"))
    result.add(1, 2.5)
    result.note("hello")
    text = format_table(result)
    assert "x: t" in text and "2.50" in text and "note: hello" in text


# --- table 1 -------------------------------------------------------------------

def test_table1_all_benchmarks_run():
    result = table1_benchmarks.run(seed=0)
    assert [row[0] for row in result.rows] == ["Wordcount", "MRBench",
                                               "TeraSort", "DFSIOTest"]
    assert all(row[2] for row in result.rows)  # ran_ok column


# --- fig 2 ------------------------------------------------------------------------

def test_fig2_cross_domain_slower_and_grows():
    result = fig2_wordcount.run(sizes_mb=(64, 192), seed=0)
    normal = result.column("normal_s")
    cross = result.column("cross_domain_s")
    assert all(c >= n for n, c in zip(normal, cross))
    assert normal[1] > normal[0]  # bigger input, longer time
    assert cross[1] > cross[0]


# --- fig 3 -----------------------------------------------------------------------

def test_fig3_scaling_shapes():
    result_a = fig3_mrbench.run_map_scaling(scales=(1, 6), seed=0, runs=1)
    normal = result_a.column("normal_s")
    cross = result_a.column("cross_domain_s")
    assert normal[1] > normal[0]
    assert all(c > n for n, c in zip(normal, cross))

    result_b = fig3_mrbench.run_reduce_scaling(scales=(1, 6), seed=0, runs=1)
    assert result_b.column("normal_s")[1] > result_b.column("normal_s")[0]


# --- fig 4 -----------------------------------------------------------------------

def test_fig4a_terasort_shapes():
    result = fig4_terasort_dfsio.run_terasort_sweep(sizes_mb=(100, 400),
                                                    seed=0)
    assert all(row[-1] for row in result.rows)  # validated
    gen_n = result.column("normal_gen_s")
    sort_n = result.column("normal_sort_s")
    assert gen_n[1] > gen_n[0] and sort_n[1] > sort_n[0]
    assert result.column("cross_sort_s")[1] > sort_n[1]


def test_fig4b_dfsio_shapes():
    result = fig4_terasort_dfsio.run_dfsio_sweep(n_files=4, file_mb=32,
                                                 seed=0)
    rows = {row[0]: row for row in result.rows}
    for layout in ("normal", "cross-domain"):
        _l, write, read = rows[layout]
        assert read > write
    assert rows["cross-domain"][1] < rows["normal"][1]  # writes slower


# --- fig 5 / table 2 -----------------------------------------------------------

@pytest.fixture(scope="module")
def migration_reports():
    return {
        "idle.1024": fig5_migration.migrate_cluster_under(
            "idle", 1024 * 1024 * 1024, seed=0),
        "idle.512": fig5_migration.migrate_cluster_under(
            "idle", 512 * 1024 * 1024, seed=0),
        "wc.1024": fig5_migration.migrate_cluster_under(
            "wordcount", 1024 * 1024 * 1024, seed=0),
        "wc.512": fig5_migration.migrate_cluster_under(
            "wordcount", 512 * 1024 * 1024, seed=0),
    }


def test_table2_memory_scaling(migration_reports):
    big = migration_reports["idle.1024"]
    small = migration_reports["idle.512"]
    assert big.overall_migration_time_s > 1.4 * small.overall_migration_time_s
    # Downtime does NOT track memory (paper observation i).
    ratio = big.overall_downtime_s / small.overall_downtime_s
    assert 0.5 < ratio < 2.0


def test_table2_wordcount_overheads(migration_reports):
    idle = migration_reports["idle.1024"]
    busy = migration_reports["wc.1024"]
    assert busy.overall_migration_time_s > 1.5 * idle.overall_migration_time_s
    assert busy.overall_downtime_s > 5.0 * idle.overall_downtime_s
    # Per-node downtime varies widely only under load (observation iii).
    assert busy.downtime_spread() > 3.0 * idle.downtime_spread()


def test_table2_seed0_migration_times_are_the_recorded_ones(
        migration_reports):
    # Recorded with per-round frozen-load adds in the fair-share fill; the
    # resubmitted Wordcount (Job.resubmit_to) must not move a timestamp.
    assert {cell: report.overall_migration_time_s
            for cell, report in migration_reports.items()} == {
        "idle.1024": 156.09047918577798, "idle.512": 85.19398466947244,
        "wc.1024": 537.9453103701763, "wc.512": 328.9996096323522}


def test_fig5_all_vms_arrive(migration_reports):
    for report in migration_reports.values():
        assert len(report.records) == 16
        assert all(r.destination == "pm1" for r in report.records)


def test_fig5_per_node_downtime_spread(migration_reports, monkeypatch):
    # Same four cells at seed 0 as the fixture: tabulate its reports
    # instead of migrating the cluster four more times.
    short = {"idle": "idle", "wordcount": "wc"}
    monkeypatch.setattr(
        fig5_migration, "migrate_cluster_under",
        lambda condition, memory, seed: migration_reports[
            f"{short[condition]}.{memory // 2 ** 20}"])
    result = fig5_migration.run_per_node(seed=0)
    by_condition = {}
    for condition, _node, _mig, downtime in result.rows:
        by_condition.setdefault(condition, []).append(downtime)
    idle = by_condition["idle.1024MB"]
    busy = by_condition["wordcount.1024MB"]
    assert len(idle) == len(busy) == 16
    # Downtime varies widely only under load (paper observation iii).
    assert (max(busy) / min(busy)) > 3.0 * (max(idle) / min(idle))


# --- fig 6 / fig 7 ----------------------------------------------------------------

def test_fig6_runtime_grows_with_cluster_scale():
    result = fig6_synthetic_control.run(scales=(2, 16), n_per_class=30,
                                        max_iterations=3, seed=0)
    for column in ("canopy_s", "dirichlet_s", "meanshift_s"):
        series = result.column(column)
        assert series[-1] > series[0], column


def test_fig7_runtime_relatively_smooth():
    result = fig7_display_clustering.run(scales=(2, 16), max_iterations=3,
                                         seed=0)
    for algo in fig7_display_clustering.ALGORITHMS:
        series = result.column(algo)
        assert max(series) < 2.5 * min(series), algo


# --- fig 8 --------------------------------------------------------------------------

def test_fig8_panels_rendered():
    result = fig8_cluster_visuals.run(seed=42, max_iterations=3)
    for panel in fig8_cluster_visuals.PANELS:
        assert panel in result.artifacts
        art = result.artifacts[panel]
        assert art.count("\n") > 10
    sample = result.artifacts["sample-data"]
    assert "." in sample
    assert "A" in result.artifacts["kmeans"]


# --- scheduler policies -----------------------------------------------------------

def test_policy_comparison():
    result = sched_policies.run(seed=0, quick=True)
    rows = {row[0]: row for row in result.rows}
    wait = {name: rows[name][result.columns.index("small_mean_wait_s")]
            for name in rows}
    # Fair sharing serves the interactive pool while the batch job runs.
    assert wait["fair"] < wait["fifo"]
    # Capacity guarantees help too, though without preemption.
    assert wait["capacity"] < wait["fifo"]
    # Only the fair scheduler (preemption configured) ever kills a task.
    preempt = {name: rows[name][result.columns.index("preemptions")]
               for name in rows}
    assert preempt["fair"] > 0
    assert preempt["fifo"] == preempt["capacity"] == 0
    # Jobs overlapped under every policy.
    assert all(c > 0 for c in result.column("concurrent_s"))
    assert all(m > 0 for m in result.column("makespan_s"))


# --- telemetry --------------------------------------------------------------------

def test_telemetry_demo_accounts_for_the_makespan():
    import json

    result = telemetry_demo.run(seed=0, quick=True)
    categories = [row[0] for row in result.rows]
    assert {"job", "task", "shuffle"} <= set(categories)
    # Critical path note reports makespan == job elapsed (within format).
    assert any("makespan" in note for note in result.notes)
    trace = json.loads(result.artifacts["chrome_trace.json"])
    cats = {r["cat"] for r in trace["traceEvents"] if r["ph"] == "X"}
    assert len(cats) >= 4
    assert "# TYPE" in result.artifacts["metrics.prom"]


# --- scale ---------------------------------------------------------------------

def test_scale_note_names_each_layouts_dominant_locality():
    """The note is computed from the table, so it cannot contradict it."""
    result = scale_wordcount.run(seed=7, quick=True)
    (note,) = result.notes
    kinds = scale_wordcount.LOCALITIES
    for row in result.rows:
        pct = dict(zip(kinds, row[-len(kinds):]))
        kind = max(pct, key=pct.get)
        assert f"{row[0]} {kind} ({pct[kind]:.1f}%)" in note
