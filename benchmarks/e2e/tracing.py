"""Span tracing installed from outside the program.

One extra *traced* pass per workload wraps the public entry points of
each layer (class-attribute rebinding for methods, importer-module
rebinding for functions) and records a span — ``(entry, start, end,
parent)`` — per call into an in-memory list with a parent stack.  A
layer's self time is its spans' duration minus the part their child
spans cover.  End-to-end numbers never come from a traced pass; the
traced pass must reproduce the untraced sim digest or the workload's
determinism check fails.

Known gap (README, "Attribution"): entry points that only *create* a
kernel process (``write_file``, ``read_block``, ``transfer``, ``submit``,
``migrate_cluster``) are charged for the creation; the body — and every
fair-share rebalance triggered by a completion timer — runs inside
``Simulator.step`` callbacks and lands in ``sim.kernel.step_self_s``
except where it calls another wrapped entry point.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter
from typing import Optional

import numpy as np

ROOT = ("harness", "workload")

#: ``(metric, module, owner class or None, attribute)`` — the entry
#: points wrapped, grouped by the per-layer metric their self time feeds.
ENTRY_POINTS = (
    ("sim.kernel.step_self_s", "repro.sim.kernel", "Simulator", "step"),
    ("sim.fairshare.api_self_s", "repro.sim.fairshare", "FairShareSystem",
     "open"),
    ("sim.fairshare.api_self_s", "repro.sim.fairshare", "FairShareSystem",
     "close"),
    ("sim.fairshare.api_self_s", "repro.sim.fairshare", "FairShareSystem",
     "set_capacity"),
    ("net.path_self_s", "repro.net.topology", "NetworkFabric", "path"),
    ("net.path_self_s", "repro.net.topology", "NetworkFabric", "transfer"),
    ("hdfs.write_self_s", "repro.hdfs.client", "DfsClient", "write_file"),
    ("hdfs.read_self_s", "repro.hdfs.client", "DfsClient", "read_block"),
    ("hdfs.read_self_s", "repro.hdfs.client", "DfsClient", "read_file"),
    ("hdfs.placement_self_s", "repro.hdfs.namenode", "NameNode",
     "choose_write_targets"),
    ("hdfs.placement_self_s", "repro.hdfs.namenode", "NameNode",
     "choose_read_replica"),
    ("mapreduce.functional_self_s", "repro.mapreduce.api", None,
     "run_mapper"),
    ("mapreduce.functional_self_s", "repro.mapreduce.api", None, "combine"),
    ("mapreduce.functional_self_s", "repro.mapreduce.api", None,
     "group_by_key"),
    ("mapreduce.functional_self_s", "repro.mapreduce.api", None,
     "run_reducer"),
    ("mapreduce.submit_self_s", "repro.mapreduce.runner", "MapReduceRunner",
     "submit"),
    ("mapreduce.submit_self_s", "repro.scheduler.jobtracker", "JobScheduler",
     "submit"),
    ("virt.migrate_self_s", "repro.virt.virtlm", "VirtLM",
     "migrate_cluster"),
    ("ml.driver_self_s", "repro.ml.canopy", "CanopyDriver", "run"),
    ("ml.driver_self_s", "repro.ml.dirichlet", "DirichletDriver", "run"),
    ("ml.driver_self_s", "repro.ml.fuzzykmeans", "FuzzyKMeansDriver", "run"),
    ("ml.driver_self_s", "repro.ml.kmeans", "KMeansDriver", "run"),
    ("ml.driver_self_s", "repro.ml.meanshift", "MeanShiftDriver", "run"),
    ("ml.driver_self_s", "repro.ml.minhash", "MinHashDriver", "run"),
    ("ml.vectors_self_s", "repro.ml.vectors", "DistanceMeasure", "distance"),
    ("ml.vectors_self_s", "repro.ml.vectors", "EuclideanDistance",
     "to_centers"),
    ("ml.vectors_self_s", "repro.ml.vectors", "SquaredEuclideanDistance",
     "to_centers"),
    ("ml.vectors_self_s", "repro.ml.vectors", "ManhattanDistance",
     "to_centers"),
    ("ml.vectors_self_s", "repro.ml.vectors", "ChebyshevDistance",
     "to_centers"),
    ("ml.vectors_self_s", "repro.ml.vectors", "CosineDistance",
     "to_centers"),
    ("ml.vectors_self_s", "repro.ml.vectors", "TanimotoDistance",
     "to_centers"),
    ("datasets.generate_self_s", "repro.datasets.text", None,
     "generate_corpus"),
    ("datasets.generate_self_s", "repro.datasets.tera", None, "teragen"),
    ("datasets.generate_self_s", "repro.datasets.synthetic_control", None,
     "generate_synthetic_control"),
    ("datasets.generate_self_s", "repro.datasets.sample_data", None,
     "generate_sample_data"),
    ("platform.provision_self_s", "repro.platform.vhadoop",
     "VHadoopPlatform", "provision_cluster"),
    ("platform.upload_self_s", "repro.platform.vhadoop", "VHadoopPlatform",
     "upload"),
    ("cloud.controller_self_s", "repro.cloud.controller",
     "ServiceController", "run"),
    ("cloud.controller_self_s", "repro.cloud.admission",
     "AdmissionController", "decide"),
    ("cloud.controller_self_s", "repro.cloud.autoscaler",
     "ElasticAutoscaler", "tick"),
    ("cloud.controller_self_s", "repro.cloud.controller",
     "SlotModelBackend", "submit"),
    ("cloud.histogram_self_s", "repro.cloud.tenants", "LatencyHistogram",
     "observe"),
    ("cloud.histogram_self_s", "repro.cloud.tenants", "LatencyHistogram",
     "merge"),
    ("telemetry.record_self_s", "repro.telemetry.timeseries",
     "TimeSeriesStore", "record"),
    ("telemetry.record_self_s", "repro.telemetry.timeseries",
     "TimeSeriesStore", "record_histogram"),
    ("telemetry.record_self_s", "repro.telemetry.timeseries",
     "TimeSeriesStore", "sample_registry"),
    ("observatory.tick_self_s", "repro.observatory.core", "Observatory",
     "tick_now"),
    ("observatory.tick_self_s", "repro.observatory.burnrate",
     "BurnRateEngine", "observe_service_tick"),
    ("observatory.tick_self_s", "repro.observatory.burnrate",
     "BurnRateEngine", "evaluate"),
    ("fuzz.generate_self_s", "repro.fuzz.scenario", None,
     "generate_scenario"),
    ("fuzz.oracle_self_s", "repro.mapreduce.local", "LocalJobRunner", "run"),
    ("fuzz.invariants_self_s", "repro.fuzz.invariants", "InvariantSuite",
     "check"),
)

#: Every ``*_self_s`` metric a traced pass reports (0.0 when never hit).
SELF_METRICS = tuple(sorted({entry[0] for entry in ENTRY_POINTS}))


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self, worker_owned: bool = False) -> None:
        #: True when a fabric worker process installed this tracer for
        #: itself (its spans travel back inside the item results).
        self.worker_owned = worker_owned
        #: ``entries[i]`` is the ``(metric, name)`` of entry id ``i``.
        self.entries: list[tuple[str, str]] = []
        #: ``(entry id, start, end, parent span index or -1)`` per span,
        #: in start order; a slot is reserved on entry and filled on exit.
        self.spans: list = []
        self._stack: list[int] = []
        self._patches: list = []     # (namespace object, attribute, original)

    # -- recording -----------------------------------------------------------
    def wrap(self, fn, metric: str, name: str):
        entry = len(self.entries)
        self.entries.append((metric, name))
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (entry, start, end,
                                stack[-1] if stack else -1)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def root(self, fn):
        """Run ``fn()`` under the root span every other span descends from."""
        return self.wrap(fn, *ROOT)()

    def mark(self) -> int:
        return len(self.spans)

    # -- patching ------------------------------------------------------------
    def patch_method(self, cls, attr: str, metric: str) -> None:
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self.wrap(original, metric,
                                     f"{cls.__name__}.{attr}"))

    def patch_function(self, module, attr: str, metric: str) -> None:
        """Rebind ``module.attr`` in its own module and in every loaded
        ``repro`` / benchmark module that imported it by name."""
        original = getattr(module, attr)
        traced = self.wrap(original, metric, attr)
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "")
            if not (name.startswith("repro.") or
                    name in ("repro", "workloads")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, traced)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- arithmetic ----------------------------------------------------------
    def aggregate(self, since: int = 0, until: Optional[int] = None) -> dict:
        """``{"metric|name": [calls, self_s]}`` over spans ``since:until``.

        Both ends are :meth:`mark` values taken while no span was open,
        so no span in the slice has its parent outside it.

        Self time = duration - the part direct children cover; spans are
        strictly nested (one thread, one stack), so a span's children
        are disjoint and their durations simply add up.
        """
        spans = [s for s in self.spans[since:until] if s is not None]
        if not spans:
            return {}
        entry = np.fromiter((s[0] for s in spans), dtype=np.int64,
                            count=len(spans))
        dur = np.fromiter((s[2] - s[1] for s in spans), dtype=float,
                          count=len(spans))
        parent = np.fromiter((s[3] for s in spans), dtype=np.int64,
                             count=len(spans)) - since
        inside = parent >= 0
        cover = np.bincount(parent[inside], weights=dur[inside],
                            minlength=len(spans))
        self_s = dur - cover
        calls = np.bincount(entry, minlength=len(self.entries))
        totals = np.bincount(entry, weights=self_s,
                             minlength=len(self.entries))
        return {f"{metric}|{name}": [int(calls[i]), float(totals[i])]
                for i, (metric, name) in enumerate(self.entries)
                if calls[i]}


def merge_aggregates(into: dict, other: dict) -> None:
    for key, (calls, self_s) in other.items():
        have = into.setdefault(key, [0, 0.0])
        have[0] += calls
        have[1] += self_s


def layer_self_times(aggregate: dict) -> dict:
    """Fold a span aggregate into the ``*_self_s`` per-layer metrics."""
    out = {metric: 0.0 for metric in SELF_METRICS}
    for key, (_calls, self_s) in aggregate.items():
        metric = key.split("|", 1)[0]
        if metric in out:
            out[metric] += self_s
    return out


# -- process-wide installation ---------------------------------------------
# Rebinding class attributes is process-global by nature, so exactly one
# tracer may be installed at a time; ``installed()`` lets code that runs
# both inline and in fabric workers tell which case it is in.

_installed: Optional[Tracer] = None


def installed() -> Optional[Tracer]:
    return _installed


def install(worker_owned: bool = False) -> Tracer:
    global _installed
    if _installed is not None:
        raise RuntimeError("a tracer is already installed")
    tracer = Tracer(worker_owned)
    for metric, module_name, owner, attr in ENTRY_POINTS:
        module = importlib.import_module(module_name)
        if owner is None:
            tracer.patch_function(module, attr, metric)
        else:
            tracer.patch_method(getattr(module, owner), attr, metric)
    _installed = tracer
    return tracer


def uninstall() -> None:
    global _installed
    if _installed is not None:
        _installed.uninstall()
        _installed = None
