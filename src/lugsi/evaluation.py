"""Cross-validation, grid search, and scaling benchmarks.

The protocol is leakage-free by construction: every fold scales,
granulates, and builds invariants from its training rows only, then
applies the frozen scaling to the held-out rows. Grids default to
C in 2^-8..2^8 (regularizer gamma = 1/C), rbf delta in 2^-4..2^4, and a
cluster grid {1, 3, 7, l/2, l} for small datasets or {1, 3, 7, l/16, l}
for l >= 800. Fold fits weight invariants with per-granule normalized
uniform v-values; `lugsi train` runs the same pipeline
(train_fold_pipeline), so a configuration chosen here is refit by `train`
with the same flags.

One driver evaluates every grid, single configuration and cluster sweep
in the order fold -> m_eff -> kernel system -> configs, where
m_eff = min(m, distinct scaled rows of the training fold): more granules
than distinct points would leave k-means thrashing. Granulation and invariants depend
only on (fold, m_eff, seed, restarts), so they run once per such unit and
are shared by all of its (C, delta) points. The system a fit solves (P
and the weights' s and t) depends on the unit and the kernel spec (delta)
but not on C, so each unit builds it once per delta and solves it at every
C. A configuration's reported train time on a fold is its unit's
granulation and invariant time, plus its delta's system build, plus its
own closed-form solve time: the time to train that configuration from
scratch on the fold, so mean train times stay comparable across m for the
wall-time tie-break.
"""

import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .dataset import Dataset, ScalingParams, apply_scaling, generate_ndc, kfold_split, minmax_scale
from .errors import DataError
from .granulation import kmeans_granulate
# granule_v_vectors is not called here: perfbench/tracer.py wraps it by this module's name
from .invariants import (
    MeasureSpec, granule_v_vectors, normalized_granule_invariants, v_matrix,
)
from .kernels import KernelSpec
from .solver import (
    GranulatedSystem, check_kernel_fit_size, fit_kernel_lugsi, fit_linear_lugsi, granulated_system,
    predict_labels,
)

SMALL_DATASET_LIMIT = 800
# blobs in the synthetic data of benchmark_scaling
SCALING_DATA_CLUSTERS = 10
# benchmark_scaling times the V-matrix up to this l, and the median of this many fits
SCALING_V_MATRIX_LIMIT = 5000
SCALING_FIT_REPEATS = 5


def default_c_values() -> tuple[float, ...]:
    return tuple(float(2.0**e) for e in range(-8, 9))


def default_delta_values() -> tuple[float, ...]:
    return tuple(float(2.0**e) for e in range(-4, 5))


def default_m_values(l: int) -> tuple[int, ...]:
    """Cluster-count grid: {1,3,7,l/2,l} below 800 samples, {1,3,7,l/16,l} above."""
    fraction = l // 2 if l < SMALL_DATASET_LIMIT else l // 16
    candidates = [1, 3, 7, max(1, fraction), l]
    seen: dict[int, None] = {}
    for m in candidates:
        if 1 <= m <= l:
            seen.setdefault(m)
    return tuple(seen)


@dataclass(frozen=True)
class GridSpec:
    """Search space for (C, delta, m) plus the CV protocol parameters."""

    c_values: tuple
    delta_values: tuple
    m_values: tuple
    folds: int = 5
    seed: int = 0

    def __post_init__(self):
        if not self.c_values or not self.m_values:
            raise DataError("grid must contain at least one C and one m value")
        m_max = max(self.m_values)
        for c in self.c_values:
            if not (0 < c < math.inf and 1.0 / c * m_max < math.inf):
                raise DataError(f"C values must be positive, gamma*m finite: C={c!r}, m={m_max}")
        if any(m < 1 for m in self.m_values):
            raise DataError("m values must be >= 1")
        for delta in self.delta_values:
            KernelSpec("rbf", delta=delta)
        if self.folds < 2:
            raise DataError("need at least 2 folds")

    @classmethod
    def default(cls, l: int, folds: int = 5, seed: int = 0) -> "GridSpec":
        return cls(
            c_values=default_c_values(),
            delta_values=default_delta_values(),
            m_values=default_m_values(l),
            folds=folds,
            seed=seed,
        )


@dataclass(frozen=True)
class CVConfig:
    """One point of the grid: solver family plus its parameters."""

    kernel_kind: str  # linear | rbf | cro
    gamma: float
    m: int
    c: float | None = None
    delta: float | None = None
    cro_gamma: float = 0.0

    def kernel_spec(self) -> KernelSpec | None:
        if self.kernel_kind == "linear":
            return None
        return KernelSpec(
            kind=self.kernel_kind,
            delta=self.delta if self.delta is not None else 1.0,
            cro_gamma=self.cro_gamma,
        )


@dataclass(frozen=True)
class FoldResult:
    fold: int
    accuracy: float
    train_seconds: float
    m_effective: int
    test_indices: np.ndarray
    predictions: np.ndarray


@dataclass(frozen=True)
class ConfigResult:
    config: CVConfig
    fold_results: tuple
    mean_accuracy: float
    std_accuracy: float
    mean_train_seconds: float

    @property
    def m_clipped(self) -> bool:
        return any(fr.m_effective != self.config.m for fr in self.fold_results)


@dataclass(frozen=True)
class EvalReport:
    kernel_kind: str
    folds: int
    seed: int
    samples: int
    features: int
    results: tuple
    best_index: int

    @property
    def best(self) -> ConfigResult:
        return self.results[self.best_index]


def accuracy(predicted, actual) -> float:
    """Fraction of agreeing entries."""
    predicted = np.asarray(predicted)
    actual = np.asarray(actual)
    if predicted.shape != actual.shape or predicted.ndim != 1:
        raise DataError("prediction and label vectors must have equal length")
    if predicted.size == 0:
        raise DataError("cannot score empty vectors")
    return float(np.mean(predicted == actual))


@dataclass(frozen=True)
class _PreparedFold:
    """A scaled training fold ready to solve: the system of one kernel spec,
    the fold's scaling, and `seconds`, the wall time of its k-means, its
    invariants and the system's build."""

    system: GranulatedSystem
    params: ScalingParams
    seconds: float


def distinct_rows(scaled: Dataset) -> int:
    """The number of distinct rows: the most granules k-means can fill.

    Rows compare by ==, so -0.0 equals 0.0, as in np.unique(axis=0); a
    lexicographic sort makes equal rows neighbours, and each row that
    differs from the one before it starts a new distinct row. (np.unique
    with an axis imports numpy.ma, about 1 MB, on its first call.)
    """
    rows = scaled.features[np.lexsort(scaled.features.T)]
    return 1 + int(np.count_nonzero((rows[1:] != rows[:-1]).any(axis=1)))


def _granulate_fold(scaled: Dataset, m_eff: int, seed: int, restarts: int, measure: str):
    """k-means into m_eff granules and their normalized invariants under
    `measure` ("uniform", or "empirical" on the scaled rows). Returns
    (granulation, invariants, k-means seconds, invariant seconds)."""
    started = time.perf_counter()
    granulation = kmeans_granulate(scaled, m_eff, seed, restarts=restarts)
    granulated = time.perf_counter()
    empirical = measure == "empirical"
    spec = MeasureSpec.empirical(scaled.features) if empirical else MeasureSpec.uniform()
    invariants = normalized_granule_invariants(scaled, granulation, spec)
    return granulation, invariants, granulated - started, time.perf_counter() - granulated


def _prepare_fold(scaled: Dataset, params: ScalingParams, granulated, kernel) -> _PreparedFold:
    """The fold of a `_granulate_fold` result with its system for `kernel` built."""
    granulation, invariants, kmeans_seconds, invariant_seconds = granulated
    started = time.perf_counter()
    system = granulated_system(scaled, granulation, invariants, kernel)
    seconds = kmeans_seconds + invariant_seconds + time.perf_counter() - started
    return _PreparedFold(system, params, seconds)


def _check_budget(configs, l: int) -> None:
    """Refuse kernel configs whose largest fit on l training rows would exceed
    the array budget, before any k-means runs."""
    kernel_m = [config.m for config in configs if config.kernel_kind != "linear"]
    if kernel_m:
        check_kernel_fit_size(min(max(kernel_m), l), l)


def train_fold_pipeline(
    train: Dataset, config: CVConfig, seed: int, restarts: int = 10, measure: str = "uniform"
):
    """Scale, granulate, build invariants and the system, and fit on training rows only.

    Returns (model, FitDiagnostics, train_seconds); the scaling params
    are model.scaling. `measure` is the v-value measure of `lugsi train
    --measure`: "uniform" on the unit cube, or "empirical" with the scaled
    training rows as reference. From raw rows it granulates at m_eff =
    min(config.m, distinct scaled rows), and the clock covers k-means,
    invariants, the system build and the solve. The evaluation driver
    passes a prepared fold instead: a fold's scaling, its seconds and the
    system of this config's kernel, which holds the rows, granulation and
    kernel; then only the solve runs, and its time is added to the fold's.
    """
    fold = train
    if not isinstance(fold, _PreparedFold):
        _check_budget([config], train.l)
        scaled, params = minmax_scale(train)
        m_eff = min(config.m, distinct_rows(scaled))
        granulated = _granulate_fold(scaled, m_eff, seed, restarts, measure)
        fold = _prepare_fold(scaled, params, granulated, config.kernel_spec())
    system = fold.system
    started = time.perf_counter()
    if system.kernel is None:
        model, diagnostics = fit_linear_lugsi(
            system.data, system.granulation, system, config.gamma, fold.params
        )
    else:
        model, diagnostics = fit_kernel_lugsi(
            system.data, system.granulation, system, system.kernel, config.gamma, fold.params
        )
    return model, diagnostics, fold.seconds + time.perf_counter() - started


def _units(data: Dataset, plan, configs, seed: int, restarts: int):
    """Work units in fold order, then in first-seen order of m_eff.

    Each fold's training rows are scaled, and its test rows rescaled, once.
    A unit is one (fold, m_eff = min(m, distinct scaled training rows)) with
    every config it serves, paired with the config's index in `configs`.
    """
    for fold in range(plan.fold_count):
        test_idx = plan.test_indices(fold)
        scaled, params = minmax_scale(data.subset(plan.train_indices(fold)))
        scaled_test = apply_scaling(data.subset(test_idx), params)
        distinct = distinct_rows(scaled)
        by_m: dict[int, list] = {}
        for index, config in enumerate(configs):
            by_m.setdefault(min(config.m, distinct), []).append((index, config))
        for m_eff, members in by_m.items():
            yield fold, scaled, params, scaled_test, test_idx, m_eff, members, seed, restarts


def _evaluate_unit(unit) -> list:
    """Granulate one (fold, m_eff) once, then for each kernel spec prepare
    the fold with its system and fit and score each of its configs; returns
    (config index, FoldResult) pairs."""
    fold, scaled, params, scaled_test, test_idx, m_eff, members, seed, restarts = unit
    granulated = _granulate_fold(scaled, m_eff, seed, restarts, "uniform")
    by_kernel: dict = {}
    for index, config in members:
        by_kernel.setdefault(config.kernel_spec(), []).append((index, config))
    out = []
    for kernel, group in by_kernel.items():
        prepared = _prepare_fold(scaled, params, granulated, kernel)
        for index, config in group:
            # the one fold-fit path, so a traced grid still records one fold fit per (config, fold)
            model, _, seconds = train_fold_pipeline(prepared, config, seed, restarts)
            predictions = predict_labels(model, scaled_test.features)
            score = accuracy(predictions, scaled_test.labels)
            out.append((index, FoldResult(fold, score, seconds, m_eff, test_idx, predictions)))
        del prepared  # one system live at a time
    return out


def _evaluate(
    data: Dataset, configs, folds: int, seed: int, restarts: int, threads: int = 1
) -> tuple:
    """The one evaluation driver: per-fold results of every config.

    Work runs fold -> m_eff -> kernel system -> configs, so k-means and
    the invariants run once per (fold, m_eff) whatever the number of
    (C, delta) points, each (fold, m_eff, delta) system is built once for
    all of its C values, and only one granulation and one system are live
    at a time. A kernel config whose fit would exceed the array budget on
    some training fold is refused before any fold work. With threads > 1
    the units run in worker processes; results are assembled in `configs`
    order.
    """
    plan = kfold_split(data, folds, seed)
    for fold in range(folds):
        _check_budget(configs, plan.train_indices(fold).size)
    units = _units(data, plan, configs, seed, restarts)
    if threads > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            outcomes = list(pool.map(_evaluate_unit, units, chunksize=1))
    else:
        outcomes = map(_evaluate_unit, units)
    per_config = [[] for _ in configs]
    for outcome in outcomes:
        for index, fold_result in outcome:
            per_config[index].append(fold_result)
    results = []
    for config, fold_results in zip(configs, per_config):
        accs = np.array([fr.accuracy for fr in fold_results])
        times = np.array([fr.train_seconds for fr in fold_results])
        results.append(
            ConfigResult(
                config=config,
                fold_results=tuple(fold_results),
                mean_accuracy=float(accs.mean()),
                std_accuracy=float(accs.std()),
                mean_train_seconds=float(times.mean()),
            )
        )
    return tuple(results)


def cross_validate(
    data: Dataset, config: CVConfig, folds: int, seed: int, restarts: int = 10
) -> ConfigResult:
    """Per-fold accuracies and train times for one configuration.

    m values above a training fold's number of distinct scaled rows are
    clipped to that number and surface through FoldResult.m_effective.
    """
    return _evaluate(data, [config], folds, seed, restarts)[0]


def enumerate_configs(grid: GridSpec, kernel_kind: str, cro_gamma: float = 0.0) -> list[CVConfig]:
    """Grid order: C outermost, then delta (rbf only), then m."""
    configs = []
    for c in grid.c_values:
        deltas = grid.delta_values if kernel_kind == "rbf" else (None,)
        for delta in deltas:
            for m in grid.m_values:
                configs.append(
                    CVConfig(
                        kernel_kind=kernel_kind,
                        gamma=1.0 / c,
                        m=int(m),
                        c=float(c),
                        delta=delta,
                        cro_gamma=cro_gamma,
                    )
                )
    return configs


def select_best(results, time_tiebreak: bool = True) -> int:
    """Highest mean accuracy; ties by lower std, then lower mean train
    time (when enabled), then first in grid order."""
    best = 0
    for i in range(1, len(results)):
        challenger, incumbent = results[i], results[best]
        if challenger.mean_accuracy != incumbent.mean_accuracy:
            if challenger.mean_accuracy > incumbent.mean_accuracy:
                best = i
            continue
        if challenger.std_accuracy != incumbent.std_accuracy:
            if challenger.std_accuracy < incumbent.std_accuracy:
                best = i
            continue
        if time_tiebreak and challenger.mean_train_seconds < incumbent.mean_train_seconds:
            best = i
    return best


def grid_search(
    data: Dataset,
    grid: GridSpec,
    kernel_kind: str,
    cro_gamma: float = 0.0,
    restarts: int = 10,
    threads: int = 1,
    time_tiebreak: bool = True,
) -> EvalReport:
    """Exhaustive evaluation of the grid, deterministic under the seed.

    (fold, m) units may be evaluated in parallel worker processes; the
    report is always assembled in grid order.
    """
    if kernel_kind not in ("linear", "rbf", "cro"):
        raise DataError(f"unknown kernel kind {kernel_kind!r}")
    if threads < 1:
        raise DataError("threads must be >= 1")
    if kernel_kind == "rbf" and not grid.delta_values:
        raise DataError("an rbf grid needs at least one delta value")
    configs = enumerate_configs(grid, kernel_kind, cro_gamma)
    results = _evaluate(data, configs, grid.folds, grid.seed, restarts, threads)
    return EvalReport(
        kernel_kind=kernel_kind,
        folds=grid.folds,
        seed=grid.seed,
        samples=data.l,
        features=data.n,
        results=results,
        best_index=select_best(results, time_tiebreak),
    )


@dataclass(frozen=True)
class ClusterSweepRow:
    m: int
    mean_accuracy: float
    mean_train_seconds: float


def cluster_sweep(
    data: Dataset,
    m_values,
    config: CVConfig,
    folds: int,
    seed: int,
    restarts: int = 10,
) -> list[ClusterSweepRow]:
    """Accuracy and train time as the cluster count varies, other
    parameters fixed."""
    configs = [replace(config, m=int(m)) for m in m_values]
    return [
        ClusterSweepRow(
            m=result.config.m,
            mean_accuracy=result.mean_accuracy,
            mean_train_seconds=result.mean_train_seconds,
        )
        for result in _evaluate(data, configs, folds, seed, restarts)
    ]


@dataclass(frozen=True)
class ScalingBenchRow:
    l: int
    granulate_seconds: float
    assembly_seconds: float
    fit_seconds: float
    v_matrix_seconds: float | None
    holdout_accuracy: float


def benchmark_scaling(
    sizes,
    features: int,
    m: int,
    seed: int,
    gamma: float = 1.0,
    restarts: int = 2,
) -> list[ScalingBenchRow]:
    """Timing sweep over dataset sizes on synthetic blob data.

    Per size: generate data, then time its k-means and invariants as a cv
    fold does (normalized v vectors and targets; the per-granule
    accumulations are part of each fit), time the linear fit (median of
    SCALING_FIT_REPEATS), and, up to SCALING_V_MATRIX_LIMIT rows, time
    full V-matrix assembly for contrast. Accuracy is from an 80/20 holdout.
    Every size must leave at least m training rows; m is never clipped.
    """
    sizes = list(sizes)
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise DataError("sizes must be strictly ascending")
    train_rows = [l - max(1, l // 5) for l in sizes]
    for l, l_train in zip(sizes, train_rows):
        if l_train < m:
            raise DataError(f"size {l} leaves {l_train} training rows, fewer than m={m}")
    rows = []
    for l, l_train in zip(sizes, train_rows):
        raw = generate_ndc(l, features, SCALING_DATA_CLUSTERS, seed)
        train = raw.subset(np.arange(l_train))
        test = raw.subset(np.arange(l_train, l))
        scaled, params = minmax_scale(train)

        granulation, invariants, granulate_seconds, assembly_seconds = _granulate_fold(
            scaled, m, seed, restarts, "uniform"
        )
        fit_times = []
        for _ in range(SCALING_FIT_REPEATS):
            started = time.perf_counter()
            model, _ = fit_linear_lugsi(scaled, granulation, invariants, gamma, params)
            fit_times.append(time.perf_counter() - started)
        fit_seconds = float(np.median(fit_times))

        v_matrix_seconds = None
        if l <= SCALING_V_MATRIX_LIMIT:
            started = time.perf_counter()
            v_matrix(scaled, MeasureSpec.uniform())
            v_matrix_seconds = time.perf_counter() - started

        scaled_test = apply_scaling(test, params)
        holdout_accuracy = accuracy(predict_labels(model, scaled_test.features), test.labels)
        rows.append(
            ScalingBenchRow(
                l=l,
                granulate_seconds=granulate_seconds,
                assembly_seconds=assembly_seconds,
                fit_seconds=fit_seconds,
                v_matrix_seconds=v_matrix_seconds,
                holdout_accuracy=holdout_accuracy,
            )
        )
    return rows


def report_document(report: EvalReport, timing: str = "wall") -> dict:
    """Report as a versioned document; timing="zero" blanks wall times so
    reruns are byte-identical."""
    zero = timing == "zero"
    configs = []
    for result in report.results:
        cfg = result.config
        configs.append(
            {
                "c": cfg.c,
                "gamma": cfg.gamma,
                "delta": cfg.delta,
                "m": cfg.m,
                "m_clipped": result.m_clipped,
                "mean_accuracy": result.mean_accuracy,
                "std_accuracy": result.std_accuracy,
                "mean_train_seconds": 0.0 if zero else result.mean_train_seconds,
                "fold_accuracies": [fr.accuracy for fr in result.fold_results],
                "fold_train_seconds": [
                    0.0 if zero else fr.train_seconds for fr in result.fold_results
                ],
            }
        )
    return {
        "format_version": 1,
        "kind": "cv-report",
        "kernel": report.kernel_kind,
        "folds": report.folds,
        "seed": report.seed,
        "samples": report.samples,
        "features": report.features,
        "best_index": report.best_index,
        "configurations": configs,
    }


def plot_csv_lines(report: EvalReport, timing: str = "wall") -> list[str]:
    """Flat per-fold rows for plotting: c, delta, m, fold, acc, train_seconds."""
    from .serialize import csv_line

    zero = timing == "zero"
    lines = ["c,delta,m,fold,acc,train_seconds"]
    for result in report.results:
        cfg = result.config
        for fr in result.fold_results:
            lines.append(
                csv_line(
                    cfg.c if cfg.c is not None else "",
                    cfg.delta if cfg.delta is not None else "",
                    cfg.m,
                    fr.fold,
                    fr.accuracy,
                    0.0 if zero else fr.train_seconds,
                )
            )
    return lines
