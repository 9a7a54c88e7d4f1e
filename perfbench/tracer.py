"""Span recorder and layer shims for the traced benchmark run.

A shim replaces one function in the module namespace where its caller
looks it up (``lugsi.evaluation.kmeans_granulate`` for the grid search,
``lugsi.kmeans_granulate`` for the benchmark's own calls, and so on). While
the recorder is active each call records a span: name, start, end, the
span open when it started (its parent) and the repetition it belongs to.
Spans stay in memory until the run ends. Per-layer metrics are computed
from them afterwards; a layer's self time is its spans' durations minus
the time covered by their child spans.

A target that no longer exists is skipped and reported, so a refactor of
the package degrades the trace instead of breaking the benchmark.
"""

import functools
import importlib
import math
import os
import statistics
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

MIB = float(2**20)


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int | None
    run: int
    counts: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Target:
    """One function to wrap: where it is looked up and what it records."""

    module: str
    attribute: str
    layer: str
    op: str
    probe: Callable | None = None
    memory: bool = False

    @property
    def name(self) -> str:
        return f"{self.layer}.{self.op}"

    @property
    def where(self) -> str:
        return f"{self.module}.{self.attribute}"


def _argument(args, kwargs, position: int, name: str):
    return args[position] if len(args) > position else kwargs.get(name)


def _granulation(args, kwargs, result) -> dict:
    return {
        "iterations": int(result.iterations_run),
        "clustering_error": float(result.clustering_error),
    }


def _invariants(args, kwargs, result) -> dict:
    zero = sum(int(np.count_nonzero(np.asarray(inv.v) == 0.0)) for inv in result)
    return {"zero_weight_members": zero}


def _gram(args, kwargs, result) -> dict:
    rows, cols = np.shape(result)
    return {"entries": int(rows) * int(cols)}


def _fit(args, kwargs, result) -> dict:
    model, diagnostics = result
    coefficients = model.w if hasattr(model, "w") else model.A
    return {
        "system_dim": int(np.shape(coefficients)[0]),
        "condition_hint": float(diagnostics.system_condition_hint),
        "bias_fallback": int(bool(diagnostics.bias_fallback)),
    }


def _rows(args, kwargs, result) -> dict:
    return {"rows": int(np.shape(_argument(args, kwargs, 1, "points"))[0])}


def _saved_bytes(args, kwargs, result) -> dict:
    return {"model_bytes": os.path.getsize(_argument(args, kwargs, 1, "path"))}


def _configs(args, kwargs, result) -> dict:
    return {"configs": len(result.results)}


TARGETS = (
    Target("lugsi", "minmax_scale", "dataset", "minmax_scale"),
    Target("lugsi", "apply_scaling", "dataset", "apply_scaling"),
    Target("lugsi.evaluation", "minmax_scale", "dataset", "minmax_scale"),
    Target("lugsi.evaluation", "apply_scaling", "dataset", "apply_scaling"),
    Target("lugsi.evaluation", "kfold_split", "dataset", "kfold_split"),
    Target("lugsi", "kmeans_granulate", "granulation", "kmeans", _granulation),
    Target("lugsi.evaluation", "kmeans_granulate", "granulation", "kmeans", _granulation),
    Target("lugsi", "normalized_granule_invariants", "invariants", "build", _invariants),
    Target("lugsi.evaluation", "normalized_granule_invariants", "invariants", "build", _invariants),
    Target("lugsi.evaluation", "granule_v_vectors", "invariants", "build", _invariants),
    Target("lugsi.solver", "gram_block", "kernels", "gram_block", _gram, memory=True),
    Target("lugsi", "fit_linear_lugsi", "solver", "fit", _fit),
    Target("lugsi", "fit_kernel_lugsi", "solver", "fit", _fit),
    Target("lugsi.evaluation", "fit_linear_lugsi", "solver", "fit", _fit),
    Target("lugsi.evaluation", "fit_kernel_lugsi", "solver", "fit", _fit),
    Target("lugsi", "predict_labels", "solver", "predict", _rows),
    Target("lugsi.evaluation", "predict_labels", "solver", "predict", _rows),
    Target("lugsi", "save_model", "serialize", "save", _saved_bytes),
    Target("lugsi", "load_model", "serialize", "load"),
    Target("lugsi", "grid_search", "evaluation", "grid_search", _configs),
    Target("lugsi.evaluation", "train_fold_pipeline", "evaluation", "fold_fit"),
)

LAYERS = ("dataset", "granulation", "invariants", "kernels", "solver", "serialize", "evaluation")

# name -> unit, in the order they are printed
PER_LAYER_UNITS = {
    "dataset.busy_s": "s",
    "dataset.calls": "count",
    "granulation.busy_s": "s",
    "granulation.calls": "count",
    "granulation.iterations": "count",
    "granulation.clustering_error": "sumsq",
    "invariants.busy_s": "s",
    "invariants.calls": "count",
    "invariants.zero_weight_members": "count",
    "kernels.busy_s": "s",
    "kernels.calls": "count",
    "kernels.entries": "count",
    "kernels.peak_mb": "MB",
    "solver.fit_self_s": "s",
    "solver.fit_calls": "count",
    "solver.system_dim": "count",
    "solver.condition_hint": "ratio",
    "solver.bias_fallbacks": "count",
    "solver.predict_self_s": "s",
    "solver.predict_rows": "count",
    "serialize.save_s": "s",
    "serialize.load_s": "s",
    "serialize.model_bytes": "bytes",
    "evaluation.self_s": "s",
    "evaluation.configs": "count",
    "evaluation.fold_fits": "count",
    "trace.traced_s": "s",
    "trace.overhead_s": "s",
}


class Recorder:
    """Collects spans of the calls made while it is active."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run = 0
        self.active = False
        self.probe_errors: list[str] = []
        self._open: list[int] = []

    @contextmanager
    def recording(self, run: int):
        self.run = run
        self.active = True
        try:
            yield
        finally:
            self.active = False

    def call(self, target: Target, fn, args, kwargs):
        if not self.active:
            return fn(*args, **kwargs)
        measure = target.memory and not tracemalloc.is_tracing()
        if measure:
            tracemalloc.start()
        parent = self._open[-1] if self._open else None
        span = Span(target.name, target.layer, time.perf_counter(), math.nan, parent, self.run)
        self._open.append(len(self.spans))
        self.spans.append(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._open.pop()
            if measure:
                span.counts["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
        if target.probe is not None:
            try:
                span.counts.update(target.probe(args, kwargs, result))
            except (AttributeError, TypeError, ValueError, IndexError, OSError) as exc:
                self.probe_errors.append(f"{target.where}: {type(exc).__name__}: {exc}")
        return result


@contextmanager
def shims_installed(recorder: Recorder, targets=TARGETS):
    """Wrap every target that exists; yield the ``module.attribute`` names
    that do not."""
    saved = []
    missing = []
    try:
        for target in targets:
            try:
                module = importlib.import_module(target.module)
            except ImportError:
                missing.append(target.where)
                continue
            fn = getattr(module, target.attribute, None)
            if not callable(fn):
                missing.append(target.where)
                continue
            setattr(module, target.attribute, _wrap(recorder, target, fn))
            saved.append((module, target.attribute, fn))
        yield missing
    finally:
        for module, attribute, fn in reversed(saved):
            setattr(module, attribute, fn)


def _wrap(recorder: Recorder, target: Target, fn):
    @functools.wraps(fn)
    def shim(*args, **kwargs):
        return recorder.call(target, fn, args, kwargs)

    return shim


def absent_layers(missing, targets=TARGETS) -> list[str]:
    """Layers none of whose targets could be wrapped."""
    present = {t.layer for t in targets if t.where not in set(missing)}
    return [layer for layer in LAYERS if layer not in present]


def layer_metrics(spans: list[Span], run: int) -> dict[str, float]:
    """Per-layer metrics of one repetition (without the trace.* entries)."""
    mine = [(i, s) for i, s in enumerate(spans) if s.run == run]
    covered: dict[int, float] = defaultdict(float)
    for _, s in mine:
        if s.parent is not None:
            covered[s.parent] += s.end - s.start
    by_name: dict[str, list] = defaultdict(list)
    by_layer: dict[str, list] = defaultdict(list)
    for i, s in mine:
        entry = (s.end - s.start - covered[i], s.end - s.start, s.counts)
        by_name[s.name].append(entry)
        by_layer[s.layer].append(entry)

    def self_s(entries):
        return sum(e[0] for e in entries)

    def total(entries, key, combine=sum):
        values = [e[2][key] for e in entries if key in e[2]]
        return combine(values) if values else 0

    fits, predicts = by_name["solver.fit"], by_name["solver.predict"]
    return {
        "dataset.busy_s": self_s(by_layer["dataset"]),
        "dataset.calls": len(by_layer["dataset"]),
        "granulation.busy_s": self_s(by_layer["granulation"]),
        "granulation.calls": len(by_layer["granulation"]),
        "granulation.iterations": total(by_layer["granulation"], "iterations"),
        "granulation.clustering_error": float(total(by_layer["granulation"], "clustering_error")),
        "invariants.busy_s": self_s(by_layer["invariants"]),
        "invariants.calls": len(by_layer["invariants"]),
        "invariants.zero_weight_members": total(by_layer["invariants"], "zero_weight_members"),
        "kernels.busy_s": self_s(by_layer["kernels"]),
        "kernels.calls": len(by_layer["kernels"]),
        "kernels.entries": total(by_layer["kernels"], "entries"),
        "kernels.peak_mb": total(by_layer["kernels"], "peak_bytes", max) / MIB,
        "solver.fit_self_s": self_s(fits),
        "solver.fit_calls": len(fits),
        "solver.system_dim": total(fits, "system_dim", max),
        "solver.condition_hint": float(total(fits, "condition_hint", max)),
        "solver.bias_fallbacks": total(fits, "bias_fallback"),
        "solver.predict_self_s": self_s(predicts),
        "solver.predict_rows": total(predicts, "rows"),
        "serialize.save_s": sum(e[1] for e in by_name["serialize.save"]),
        "serialize.load_s": sum(e[1] for e in by_name["serialize.load"]),
        "serialize.model_bytes": total(by_name["serialize.save"], "model_bytes", max),
        "evaluation.self_s": self_s(by_layer["evaluation"]),
        "evaluation.configs": total(by_name["evaluation.grid_search"], "configs"),
        "evaluation.fold_fits": len(by_name["evaluation.fold_fit"]),
    }


def median_metrics(per_run: list[dict[str, float]]) -> dict[str, float]:
    """Low median of each metric over repetitions, so counts stay whole."""
    return {key: statistics.median_low(run[key] for run in per_run) for key in per_run[0]}


def span_records(spans: list[Span]):
    """Spans as JSON-ready dicts, in the order they started."""
    for index, s in enumerate(spans):
        yield {
            "id": index,
            "name": s.name,
            "start": s.start,
            "end": s.end,
            "parent": s.parent,
            "run": s.run,
            **s.counts,
        }
