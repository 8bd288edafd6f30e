"""``bench.py compare A.json B.json`` — A is the parent, B the change.

Per workload: every end-to-end metric (median A, median B, how much
worse B is, the bound, a verdict), the per-layer deltas below it, and
digest drift listed on its own.  Verdicts follow the choosing-metrics
guide: ``worse`` when B's median is beyond the bound *and* every B rep
reads worse than every A rep; ``unresolved`` when the medians or the
rep-to-rep spread exceed the bound but the rep ranges overlap; ``ok``
otherwise.  Exit code 1 on any ``worse`` (or any failed check in B).
"""

from __future__ import annotations

import json
import sys

import spec


class ResultError(ValueError):
    """A result file that cannot be compared."""


def load_result(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    validate_result(doc, path)
    return doc


def validate_result(doc: dict, label: str = "result") -> None:
    for key in ("schema", "mode", "seed", "reps", "env", "workloads",
                "probes"):
        if key not in doc:
            raise ResultError(f"{label}: missing {key!r}")
    if doc["mode"] != "full":
        raise ResultError(f"{label}: mode {doc['mode']!r} results are for "
                          "the harness self-tests and cannot be compared")
    for name, entry in doc["workloads"].items():
        if name not in spec.WORKLOAD_NAMES:
            raise ResultError(f"{label}: unknown workload {name!r}")
        for key in ("e2e", "per_layer", "checks", "digests"):
            if key not in entry:
                raise ResultError(f"{label}: {name} lacks {key!r}")
        for metric, stat in entry["e2e"].items():
            if metric not in spec.E2E_BY_NAME:
                raise ResultError(f"{label}: {name}: unknown metric "
                                  f"{metric!r}")
            if not stat.get("values"):
                raise ResultError(f"{label}: {name}.{metric} has no values")


def worse_by(metric: spec.Metric, a: float, b: float) -> float:
    """Share of A's median by which B is worse (negative: better)."""
    if a == 0:
        return 0.0 if b == 0 else float("inf")
    return (b - a) / abs(a) if metric.better == "lower" \
        else (a - b) / abs(a)


def bound_for(metric: spec.Metric, same_seed: bool) -> float:
    if same_seed and metric.same_seed_bound is not None:
        return metric.same_seed_bound
    return metric.bound


def verdict(metric: spec.Metric, a: dict, b: dict,
            same_seed: bool = False) -> tuple[str, float]:
    """``(ok | worse | unresolved, worse_by)`` for one metric's stats."""
    bound = bound_for(metric, same_seed)
    delta = worse_by(metric, a["median"], b["median"])
    lower = metric.better == "lower"
    all_b_worse = (min(b["values"]) > max(a["values"]) if lower
                   else max(b["values"]) < min(a["values"]))
    all_b_better = (max(b["values"]) < min(a["values"]) if lower
                    else min(b["values"]) > max(a["values"]))
    if delta > bound:
        return ("worse" if all_b_worse else "unresolved"), delta
    spread = max((s["max"] - s["min"]) / abs(s["median"])
                 if s["median"] else 0.0 for s in (a, b))
    if spread > bound and not all_b_better:
        return "unresolved", delta
    return "ok", delta


def _pct(share: float) -> str:
    return f"{100.0 * share:+.1f}%"


def compare(a: dict, b: dict, out=sys.stdout) -> int:
    """Print the comparison; return the number of ``worse`` findings."""
    worse = 0
    same_seed = a["seed"] == b["seed"]
    for name in spec.WORKLOAD_NAMES:
        wa, wb = a["workloads"].get(name), b["workloads"].get(name)
        if wa is None or wb is None:
            if wa is not wb:
                print(f"\n{name}: only in "
                      f"{'A' if wb is None else 'B'}", file=out)
            continue
        print(f"\n{name}", file=out)
        print(f"  {'metric':<16} {'unit':<6} {'A':>11} {'B':>11} "
              f"{'B worse by':>10} {'bound':>6}  verdict", file=out)
        for metric in spec.END_TO_END:
            sa, sb = wa["e2e"].get(metric.name), wb["e2e"].get(metric.name)
            if sa is None or sb is None:
                print(f"  {metric.name:<16} missing in "
                      f"{'A' if sa is None else 'B'}", file=out)
                worse += sb is None
                continue
            word, delta = verdict(metric, sa, sb, same_seed)
            worse += word == "worse"
            print(f"  {metric.name:<16} {metric.unit:<6} "
                  f"{sa['median']:>11.5g} {sb['median']:>11.5g} "
                  f"{_pct(delta):>10} {bound_for(metric, same_seed):>6.0%}"
                  f"  {word}", file=out)
        ca, cb = wa["checks"], wb["checks"]
        share_a = ca["failed"] / max(1, ca["attempted"])
        share_b = cb["failed"] / max(1, cb["attempted"])
        word = "ok" if cb["failed"] == 0 else "worse"
        worse += word == "worse"
        print(f"  {'failed_share':<16} {'ratio':<6} {share_a:>11.3g} "
              f"{share_b:>11.3g} {'':>10} {'0':>6}  {word}", file=out)
        for metric in spec.PER_LAYER:
            va = wa["per_layer"].get(metric.name)
            vb = wb["per_layer"].get(metric.name)
            if va is None or vb is None or va == vb:
                continue
            note = "  (exact count moved)" \
                if metric.name in spec.EXACT_LAYER else ""
            change = _pct((vb - va) / abs(va)) if va else "new"
            print(f"    {metric.name:<46} {metric.unit:<6} {va:>12.5g} "
                  f"{vb:>12.5g} {change:>9}{note}", file=out)
    pa, pb = a.get("probes", {}), b.get("probes", {})
    moved = [m for m in spec.PER_LAYER
             if m.name in pa and m.name in pb and pa[m.name]]
    if moved:
        print("\nprobes", file=out)
        for metric in moved:
            va, vb = pa[metric.name], pb[metric.name]
            print(f"    {metric.name:<46} {metric.unit:<6} {va:>12.5g} "
                  f"{vb:>12.5g} {_pct((vb - va) / abs(va)):>9}", file=out)
    drift = [(name, a["workloads"][name]["digests"],
              b["workloads"][name]["digests"])
             for name in spec.WORKLOAD_NAMES
             if name in a["workloads"] and name in b["workloads"]
             and a["workloads"][name]["digests"]
             != b["workloads"][name]["digests"]]
    print("\nsim digest drift (reported, not scored): "
          + ("none" if not drift else ""), file=out)
    for name, da, db in drift:
        print(f"  {name}: {','.join(da) or '-'} -> {','.join(db) or '-'}",
              file=out)
    if not same_seed:
        print(f"note: seeds differ ({a['seed']} vs {b['seed']}); digests "
              "and counts are not comparable, and peak_rss_mb and "
              "sim_headline_s are held to the cross-seed bound", file=out)
    print(f"\n{worse} metric(s) worse", file=out)
    return worse


def main(path_a: str, path_b: str) -> int:
    try:
        a, b = load_result(path_a), load_result(path_b)
    except (OSError, ValueError) as exc:
        print(f"compare: {exc}", file=sys.stderr)
        return 2
    return 1 if compare(a, b) else 0
