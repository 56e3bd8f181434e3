"""Span tracing for the traced benchmark pass, installed from outside the program.

``install`` wraps every public function of each ``rieszmatch`` module and
rebinds the wrapper under every name that binds the original in any
``rieszmatch`` module (``matching_structures`` is bound in ``cli``,
``matching`` and ``riesz`` as well as in ``neighbors``).  It also replaces
``rieszmatch.neighbors.cKDTree`` with a subclass that times tree builds and
queries.  Functions reached only through a private name or a dict, such as
the ``cli`` subcommand handlers, run inside their caller's span.

Each span records its name, layer, start, end, parent span and run id, and
the peak of tracemalloc-traced memory above what was live at its start.
Spans stay in memory until the pass ends.  A span's self time is its duration
minus the time of the nearest descendant spans that belong to another layer,
so ``neighbors.matching_structures`` self time excludes kd-tree spans and a
matching estimator's self time excludes ``neighbors`` and ``riesz`` spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
import tracemalloc
from collections import defaultdict
from dataclasses import asdict, dataclass, field

import numpy as np
from scipy.spatial import cKDTree

LAYERS = ("cli", "dataset", "neighbors", "lsif", "riesz", "matching", "equivalence", "report")
KDTREE = "neighbors.kdtree"
MATCHING_ESTIMATORS = (
    "impute",
    "ate_matching",
    "ate_weight_form",
    "ate_regression",
    "ate_bias_corrected",
    "ate_dr_riesz",
)
EQUIVALENCE_SUITES = (
    "weight_identity_max_gap",
    "theorem1_max_gap",
    "separability_max_gap",
    "dr_identity_gaps",
    "eq1_gap",
)
MB = float(1 << 20)


@dataclass(slots=True)
class Span:
    name: str
    layer: str
    start: float
    parent: int  # index into Tracer.spans, -1 at the top
    run_id: str
    end: float = 0.0
    peak_bytes: int = 0  # traced-memory peak above the amount live at start
    counts: dict = field(default_factory=dict)


# Work counts recorded at the boundaries where the work happens.
_COUNTERS = {
    "dataset.load_csv": lambda result: {"rows": result.n},
    "dataset.load_points_csv": lambda result: {"rows": len(result)},
    "report.render_report": lambda result: {"bytes": len(result.encode())},
}


class Tracer:
    """Records spans; with ``memory`` it also tracks tracemalloc peaks per span.

    Memory tracking slows Python-heavy code several fold, so a traced pass
    takes its times from a tracer without it and its peaks from one with it.
    """

    def __init__(self, run_id: str, memory: bool):
        self.run_id = run_id
        self.memory = memory
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def call(self, name: str, layer: str, fn, args, kwargs, counts=None):
        parent = self._stack[-1] if self._stack else -1
        if self.memory:
            live = self._enter_memory(parent)
        span = Span(name, layer, 0.0, parent, self.run_id, counts=counts or {})
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            if self.memory:
                self._exit_memory(span, parent, live)
        counter = _COUNTERS.get(name)
        if counter is not None:
            span.counts.update(counter(result))
        return result

    # tracemalloc keeps one peak; nested spans save the enclosing span's peak
    # so far before resetting it, and hand their own peak back on exit.
    def _enter_memory(self, parent: int) -> int:
        live, peak = tracemalloc.get_traced_memory()
        if parent >= 0:
            outer = self.spans[parent]
            outer.peak_bytes = max(outer.peak_bytes, peak)
        tracemalloc.reset_peak()
        return live

    def _exit_memory(self, span: Span, parent: int, live: int) -> None:
        peak = max(tracemalloc.get_traced_memory()[1], span.peak_bytes)
        span.peak_bytes = peak - live
        if parent >= 0:
            outer = self.spans[parent]
            outer.peak_bytes = max(outer.peak_bytes, peak)
        tracemalloc.reset_peak()

    def write(self, path) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span)) + "\n")


def _wrap(tracer: Tracer, name: str, layer: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(name, layer, fn, args, kwargs)

    return traced


def _timed_kdtree(tracer: Tracer):
    class TimedKDTree(cKDTree):
        def __init__(self, data, *args, **kwargs):
            tracer.call("neighbors.kdtree.build", KDTREE, super().__init__, (data, *args), kwargs)

        def query(self, x, k=1, *args, **kwargs):
            rows = int(np.prod(np.shape(x)[:-1]))
            k_count = k if np.isscalar(k) else len(k)
            return tracer.call(
                "neighbors.kdtree.query",
                KDTREE,
                super().query,
                (x, k, *args),
                kwargs,
                counts={"rows": rows, "candidates": rows * int(k_count)},
            )

    return TimedKDTree


def install(tracer: Tracer) -> None:
    """Route every public rieszmatch function and kd-tree through ``tracer``."""
    modules = {layer: importlib.import_module(f"rieszmatch.{layer}") for layer in LAYERS}
    wrappers: dict[int, tuple] = {}
    for layer, module in modules.items():
        for attr, obj in vars(module).items():
            if (
                inspect.isfunction(obj)
                and obj.__module__ == module.__name__
                and not attr.startswith("_")
            ):
                wrappers[id(obj)] = (obj, _wrap(tracer, f"{layer}.{attr}", layer, obj))
    package = importlib.import_module("rieszmatch")
    for module in [package, *modules.values()]:
        for attr, obj in list(vars(module).items()):
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(module, attr, hit[1])
    modules["neighbors"].cKDTree = _timed_kdtree(tracer)


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus its nearest other-layer descendants."""
    foreign = [0.0] * len(spans)
    # children are appended after their parent, so walking backwards
    # finishes every child before its parent is used
    for i in range(len(spans) - 1, -1, -1):
        span = spans[i]
        if span.parent >= 0:
            same = spans[span.parent].layer == span.layer
            foreign[span.parent] += foreign[i] if same else span.end - span.start
    return [span.end - span.start - foreign[i] for i, span in enumerate(spans)]


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer counts and busy and self times of one traced call."""
    selfs = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    busy: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    counts: dict[str, int] = defaultdict(int)
    durations: dict[str, list[float]] = defaultdict(list)
    for span, self_s in zip(spans, selfs):
        duration = span.end - span.start
        calls[span.name] += 1
        busy[span.name] += duration
        own[span.name] += self_s
        durations[span.name].append(duration)
        for key, value in span.counts.items():
            counts[f"{span.name}.{key}"] += value

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def quantile(name: str, q: float) -> float:
        return float(np.percentile(durations[name], q)) if durations[name] else 0.0

    out = {
        "neighbors.matching_structures.calls": calls["neighbors.matching_structures"],
        "neighbors.matching_structures.s": busy["neighbors.matching_structures"],
        "neighbors.matching_structures.self_s": own["neighbors.matching_structures"],
        "neighbors.kdtree.builds": calls["neighbors.kdtree.build"],
        "neighbors.kdtree.build_s": busy["neighbors.kdtree.build"],
        "neighbors.kdtree.query_calls": calls["neighbors.kdtree.query"],
        "neighbors.kdtree.query_rows": counts["neighbors.kdtree.query.rows"],
        "neighbors.kdtree.query_s": busy["neighbors.kdtree.query"],
        "neighbors.kdtree.candidates_per_row": ratio(
            counts["neighbors.kdtree.query.candidates"], counts["neighbors.kdtree.query.rows"]
        ),
        "dataset.load_csv.s": busy["dataset.load_csv"],
        "dataset.load_csv.rows_per_s": ratio(
            counts["dataset.load_csv.rows"], busy["dataset.load_csv"]
        ),
        "dataset.load_points_csv.s": busy["dataset.load_points_csv"],
        "dataset.generate.s": busy["dataset.generate"],
        "lsif.catchment_indicator.calls": calls["lsif.catchment_indicator"],
        "lsif.catchment_indicator.s": busy["lsif.catchment_indicator"],
        "lsif.evaluate_matrix.calls": calls["lsif.evaluate_matrix"],
        "lsif.evaluate_matrix.s": busy["lsif.evaluate_matrix"],
        "lsif.fit.calls": calls["lsif.fit"],
        "lsif.fit.s": busy["lsif.fit"],
        "lsif.verify_theorem1_all.s": busy["lsif.verify_theorem1_all"],
        "lsif.solve_spd.calls": calls["lsif.solve_spd"],
        "riesz.nn_weights.calls": calls["riesz.nn_weights"],
        "riesz.nn_weights.s": busy["riesz.nn_weights"],
        "riesz.fit_weight_arm.calls": calls["riesz.fit_weight_arm"],
        "riesz.fit_weight_arm.s": busy["riesz.fit_weight_arm"],
        "riesz.riesz_fit.s": busy["riesz.riesz_fit"],
        "matching.fit_outcome.s": busy["matching.fit_outcome"],
        "equivalence.run_instance.calls": calls["equivalence.run_instance"],
        "equivalence.run_instance.p50_s": quantile("equivalence.run_instance", 50),
        "equivalence.run_instance.p80_s": quantile("equivalence.run_instance", 80),
        "report.render_report.s": busy["report.render_report"],
        "report.bytes": counts["report.render_report.bytes"],
        "cli.main.self_s": own["cli.main"],
    }
    for name in MATCHING_ESTIMATORS:
        out[f"matching.{name}.self_s"] = own[f"matching.{name}"]
    for name in EQUIVALENCE_SUITES:
        out[f"equivalence.{name}.s"] = busy[f"equivalence.{name}"]
    return out


def peak_metrics(spans: list[Span]) -> dict[str, float]:
    """Largest traced-memory peak above the live amount, over each layer's spans."""
    peak: dict[str, int] = defaultdict(int)
    for span in spans:
        layer = "neighbors" if span.layer == KDTREE else span.layer
        peak[layer] = max(peak[layer], span.peak_bytes)
    return {f"{layer}.peak_mb": peak[layer] / MB for layer in ("neighbors", "dataset", "lsif")}
