"""Cross-validation, grid search, and scaling benchmarks.

The protocol is leakage-free by construction: every fold scales,
granulates, and builds invariants from its training rows only, then
applies the frozen scaling to the held-out rows. Grids default to
C in 2^-8..2^8 (regularizer gamma = 1/C), rbf delta in 2^-4..2^4, and a
cluster grid {1, 3, 7, l/2, l} for small datasets or {1, 3, 7, l/16, l}
for l >= 800. Fold fits weight invariants with per-granule normalized
uniform v-values, as `lugsi train` does, so a configuration chosen here
is refit by `train` with the same flags. Reported train time is the wall
time of granulation, invariant construction, and the closed-form solve
for one fold.
"""

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .dataset import Dataset, apply_scaling, generate_ndc, kfold_split, minmax_scale
from .errors import DataError
from .granulation import kmeans_granulate
# granule_v_vectors is not called here: perfbench/tracer.py wraps it by this module's name
from .invariants import MeasureSpec, granule_v_vectors, normalized_granule_invariants, v_matrix
from .kernels import KernelSpec
from .solver import fit_kernel_lugsi, fit_linear_lugsi, predict_labels

SMALL_DATASET_LIMIT = 800


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
        if any(c <= 0 for c in self.c_values):
            raise DataError("C values must be positive")
        if any(d <= 0 for d in self.delta_values):
            raise DataError("delta values must be positive")
        if any(m < 1 for m in self.m_values):
            raise DataError("m values must be >= 1")
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


def train_fold_pipeline(
    train: Dataset, config: CVConfig, seed: int, restarts: int = 10
):
    """Scale, granulate, build invariants, and fit on training rows only.

    Returns (model, scaling params, train_seconds). The clock covers
    granulation, invariant construction, and the solve.
    """
    scaled, params = minmax_scale(train)
    m_eff = min(config.m, train.l)
    started = time.perf_counter()
    granulation = kmeans_granulate(scaled, m_eff, seed, restarts=restarts)
    invariants = normalized_granule_invariants(scaled, granulation, MeasureSpec.uniform())
    kernel = config.kernel_spec()
    if kernel is None:
        model, _ = fit_linear_lugsi(scaled, granulation, invariants, config.gamma, params)
    else:
        model, _ = fit_kernel_lugsi(scaled, granulation, invariants, kernel, config.gamma, params)
    return model, params, time.perf_counter() - started


def cross_validate(
    data: Dataset, config: CVConfig, folds: int, seed: int, restarts: int = 10
) -> ConfigResult:
    """Per-fold accuracies and train times for one configuration.

    m values larger than a training fold are clipped to the fold size and
    surface through FoldResult.m_effective.
    """
    plan = kfold_split(data, folds, seed)
    fold_results = []
    for fold in range(folds):
        train_idx = plan.train_indices(fold)
        test_idx = plan.test_indices(fold)
        train = data.subset(train_idx)
        test = data.subset(test_idx)
        model, params, train_seconds = train_fold_pipeline(train, config, seed, restarts)
        scaled_test = apply_scaling(test, params)
        predictions = predict_labels(model, scaled_test.features)
        fold_results.append(
            FoldResult(
                fold=fold,
                accuracy=accuracy(predictions, test.labels),
                train_seconds=train_seconds,
                m_effective=min(config.m, train.l),
                test_indices=test_idx,
                predictions=predictions,
            )
        )
    accs = np.array([fr.accuracy for fr in fold_results])
    times = np.array([fr.train_seconds for fr in fold_results])
    return ConfigResult(
        config=config,
        fold_results=tuple(fold_results),
        mean_accuracy=float(accs.mean()),
        std_accuracy=float(accs.std()),
        mean_train_seconds=float(times.mean()),
    )


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


def _evaluate_one(args) -> ConfigResult:
    data, config, folds, seed, restarts = args
    return cross_validate(data, config, folds, seed, restarts)


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

    Configurations may be evaluated in parallel worker processes; the
    report is always assembled in grid order.
    """
    configs = enumerate_configs(grid, kernel_kind, cro_gamma)
    if kernel_kind not in ("linear", "rbf", "cro"):
        raise DataError(f"unknown kernel kind {kernel_kind!r}")
    tasks = [(data, config, grid.folds, grid.seed, restarts) for config in configs]
    if threads > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            results = tuple(pool.map(_evaluate_one, tasks, chunksize=1))
    else:
        results = tuple(_evaluate_one(task) for task in tasks)
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
    rows = []
    for m in m_values:
        result = cross_validate(data, replace(config, m=int(m)), folds, seed, restarts)
        rows.append(
            ClusterSweepRow(
                m=int(m),
                mean_accuracy=result.mean_accuracy,
                mean_train_seconds=result.mean_train_seconds,
            )
        )
    return rows


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
    data_clusters: int = 10,
    restarts: int = 2,
    include_v_matrix: bool = True,
    v_matrix_limit: int = 5000,
    fit_repeats: int = 5,
) -> list[ScalingBenchRow]:
    """Timing sweep over dataset sizes on synthetic blob data.

    Per size: generate data, cluster it, time the invariant construction
    (normalized v vectors and targets; the per-granule accumulations are
    part of each fit), time the linear fit (median of repeats), and, up
    to the limit, time full V-matrix assembly for contrast. Accuracy is
    from an 80/20 holdout.
    """
    sizes = list(sizes)
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise DataError("sizes must be strictly ascending")
    rows = []
    measure = MeasureSpec.uniform()
    for l in sizes:
        raw = generate_ndc(l, features, data_clusters, seed)
        holdout = max(1, l // 5)
        train = raw.subset(np.arange(l - holdout))
        test = raw.subset(np.arange(l - holdout, l))
        scaled, params = minmax_scale(train)

        started = time.perf_counter()
        granulation = kmeans_granulate(scaled, min(m, scaled.l), seed, restarts=restarts)
        granulate_seconds = time.perf_counter() - started

        started = time.perf_counter()
        invariants = normalized_granule_invariants(scaled, granulation, measure)
        assembly_seconds = time.perf_counter() - started

        fit_times = []
        for _ in range(fit_repeats):
            started = time.perf_counter()
            model, _ = fit_linear_lugsi(scaled, granulation, invariants, gamma, params)
            fit_times.append(time.perf_counter() - started)
        fit_seconds = float(np.median(fit_times))

        v_matrix_seconds = None
        if include_v_matrix and l <= v_matrix_limit:
            started = time.perf_counter()
            v_matrix(scaled, measure, max_rows=v_matrix_limit)
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
