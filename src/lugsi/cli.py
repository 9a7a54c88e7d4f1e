"""Command-line interface.

Subcommands: train, predict, cv, bench, granulate. Every run is fully
determined by its flags; all randomness flows from --seed. Output files
carry a config header for provenance and print numbers at 17 significant
digits, so reruns with identical flags produce byte-identical files
(for cv/bench pass --timing zero, which also drops wall time from the
best-configuration tie-break).

train builds each granule's invariant from v-values rescaled to a
per-granule maximum of 1 (normalized_granule_invariants), the weighting
the cv fold fit uses. On the same rows, train with the flags of a cv
configuration (--clusters m, --gamma 1/C, --kernel, --delta, --seed,
--restarts, uniform measure) writes exactly the model that the cv fold
pipeline fits. It prints the objective and gradient_norm, the exact norm
of the objective's gradient at the returned solution.

Exit codes: 0 success, 2 usage error, 3 data error, 4 numeric failure.
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .dataset import Dataset, apply_scaling, load_csv, load_sparse, minmax_scale
from .errors import DataError, NumericError
from .evaluation import (
    CVConfig,
    GridSpec,
    benchmark_scaling,
    cluster_sweep,
    default_c_values,
    default_delta_values,
    default_m_values,
    grid_search,
    plot_csv_lines,
    report_document,
)
from .granulation import kmeans_granulate
from .invariants import MeasureSpec, normalized_granule_invariants, v_value
from .kernels import KernelSpec
from .serialize import csv_line, dump_document, fmt_float
from .solver import (
    decision_values,
    fit_kernel_lugsi,
    fit_linear_lugsi,
    load_model,
    save_model,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


def _add_data_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--data", required=True, help="input data file")
    parser.add_argument("--format", choices=("csv", "sparse"), default="csv")
    parser.add_argument("--has-header", action="store_true", help="csv: first row is a header")
    parser.add_argument("--label-column", type=int, default=None, help="csv: label column index")
    parser.add_argument("--dimension-hint", type=int, default=None, help="sparse: feature count")


def _add_kernel_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--kernel", choices=("linear", "rbf", "cro"), default="linear")
    parser.add_argument("--delta", type=float, default=1.0, help="rbf width")
    parser.add_argument("--cro-gamma", type=float, default=0.0, help="cro kernel constant")


def _add_regularizer_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--gamma", type=float, default=None, help="regularization weight")
    parser.add_argument("--cost", type=float, default=None, help="tradeoff C (gamma = 1/C)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lugsi", description=__doc__)
    parser.add_argument("--version", action="version", version=f"lugsi {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="fit a model and write it to disk")
    _add_data_flags(p_train)
    _add_kernel_flags(p_train)
    _add_regularizer_flags(p_train)
    p_train.add_argument("--clusters", type=int, default=1, help="granule count m")
    p_train.add_argument("--seed", type=int, default=0)
    p_train.add_argument("--restarts", type=int, default=10, help="k-means restarts")
    p_train.add_argument(
        "--measure", choices=("uniform", "empirical"), default="uniform",
        help="v-value measure (empirical uses the training set as reference); "
        "each granule's v-values are normalized to maximum 1, as in cv",
    )
    p_train.add_argument("--model-out", required=True)

    p_pred = sub.add_parser("predict", help="apply a stored model to data")
    _add_data_flags(p_pred)
    p_pred.add_argument("--model", required=True)
    p_pred.add_argument("--out", required=True)

    p_cv = sub.add_parser("cv", help="cross-validated grid search")
    _add_data_flags(p_cv)
    _add_kernel_flags(p_cv)
    p_cv.add_argument("--c-grid", default=None, help="comma-separated C values")
    p_cv.add_argument("--delta-grid", default=None, help="comma-separated delta values")
    p_cv.add_argument("--m-grid", default=None, help="comma-separated m values")
    p_cv.add_argument("--folds", type=int, default=5)
    p_cv.add_argument("--seed", type=int, default=0)
    p_cv.add_argument("--restarts", type=int, default=10)
    p_cv.add_argument(
        "--threads", type=int, default=1, help="worker processes over (fold, m) units"
    )
    p_cv.add_argument("--timing", choices=("wall", "zero"), default="wall")
    p_cv.add_argument("--report-out", required=True)
    p_cv.add_argument("--csv-out", required=True)

    p_bench = sub.add_parser("bench", help="timing and accuracy sweeps")
    bench_sub = p_bench.add_subparsers(dest="sweep", required=True)

    p_sizes = bench_sub.add_parser("sizes", help="scaling sweep over synthetic data sizes")
    p_sizes.add_argument("--sizes", required=True, help="comma-separated ascending sizes")
    p_sizes.add_argument("--features", type=int, default=32)
    p_sizes.add_argument("--clusters", type=int, default=50, help="granule count m")
    p_sizes.add_argument("--gamma", type=float, default=1.0)
    p_sizes.add_argument("--seed", type=int, default=0)
    p_sizes.add_argument("--restarts", type=int, default=2)
    p_sizes.add_argument("--no-v-matrix", action="store_true", help="skip the contrast column")
    p_sizes.add_argument("--timing", choices=("wall", "zero"), default="wall")
    p_sizes.add_argument("--out", required=True)

    p_mlist = bench_sub.add_parser("clusters", help="accuracy/time sweep over granule counts")
    _add_data_flags(p_mlist)
    _add_kernel_flags(p_mlist)
    _add_regularizer_flags(p_mlist)
    p_mlist.add_argument("--m-list", required=True, help="comma-separated m values")
    p_mlist.add_argument("--folds", type=int, default=5)
    p_mlist.add_argument("--seed", type=int, default=0)
    p_mlist.add_argument("--restarts", type=int, default=10)
    p_mlist.add_argument("--timing", choices=("wall", "zero"), default="wall")
    p_mlist.add_argument("--out", required=True)

    p_gran = sub.add_parser("granulate", help="cluster the data and emit assignments")
    _add_data_flags(p_gran)
    p_gran.add_argument("--clusters", type=int, required=True, help="granule count m")
    p_gran.add_argument("--seed", type=int, default=0)
    p_gran.add_argument("--restarts", type=int, default=10)
    p_gran.add_argument("--emit-v", action="store_true", help="include uniform-measure v-values")
    p_gran.add_argument("--out", required=True)

    return parser


def _load_data(args) -> Dataset:
    if args.format == "csv":
        return load_csv(args.data, has_header=args.has_header, label_column=args.label_column)
    return load_sparse(args.data, dimension_hint=args.dimension_hint)


def _resolve_gamma(args, parser: argparse.ArgumentParser) -> float:
    if args.gamma is not None and args.cost is not None:
        parser.error("--gamma and --cost are mutually exclusive")
    if args.cost is not None:
        if args.cost <= 0:
            parser.error("--cost must be positive")
        return 1.0 / args.cost
    if args.gamma is not None:
        if args.gamma <= 0:
            parser.error("--gamma must be positive")
        return args.gamma
    return 1.0


def _parse_list(text: str, kind: type, flag: str, parser) -> tuple:
    try:
        values = tuple(kind(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        noun = "integers" if kind is int else "numbers"
        parser.error(f"{flag} expects comma-separated {noun}")
    if not values:
        parser.error(f"{flag} must not be empty")
    return values


def _check_output_path(path: str, parser) -> None:
    parent = Path(path).parent
    if parent and not parent.exists():
        parser.error(f"output directory does not exist: {parent}")


def _write_lines(path: str, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in lines:
            fh.write(line + "\n")


def _header(command: str, pairs: list[tuple[str, object]]) -> list[str]:
    parts = " ".join(f"{key}={value}" for key, value in pairs)
    return [f"# lugsi {command} format_version=1 {parts}"]


def cmd_train(args, parser) -> int:
    gamma = _resolve_gamma(args, parser)
    if args.clusters < 1:
        parser.error("m must be >= 1")
    _check_output_path(args.model_out, parser)
    data = _load_data(args)
    scaled, params = minmax_scale(data)
    started = time.perf_counter()
    granulation = kmeans_granulate(scaled, args.clusters, args.seed, restarts=args.restarts)
    if args.measure == "uniform":
        measure = MeasureSpec.uniform()
    else:
        measure = MeasureSpec.empirical(scaled.features)
    invariants = normalized_granule_invariants(scaled, granulation, measure)
    if args.kernel == "linear":
        model, diagnostics = fit_linear_lugsi(scaled, granulation, invariants, gamma, params)
    else:
        spec = KernelSpec(kind=args.kernel, delta=args.delta, cro_gamma=args.cro_gamma)
        model, diagnostics = fit_kernel_lugsi(scaled, granulation, invariants, spec, gamma, params)
    wall = time.perf_counter() - started
    save_model(model, args.model_out)
    print(f"objective {fmt_float(diagnostics.objective_value)}")
    print(f"gradient_norm {fmt_float(diagnostics.gradient_norm)}")
    if diagnostics.bias_fallback:
        print("bias_fallback true")
    print(f"wall_seconds {fmt_float(wall)}")
    return EXIT_OK


def cmd_predict(args, parser) -> int:
    _check_output_path(args.out, parser)
    model = load_model(args.model)
    data = _load_data(args)
    scaled = apply_scaling(data, model.scaling)
    values = decision_values(model, scaled.features)
    labels = (values >= 0.5).astype(np.int64)
    lines = _header("predict", [("model", args.model), ("data", args.data)])
    lines.append("index,decision_value,label")
    for i in range(values.shape[0]):
        lines.append(csv_line(i, values[i], int(labels[i])))
    _write_lines(args.out, lines)
    return EXIT_OK


def cmd_cv(args, parser) -> int:
    if args.threads < 1:
        parser.error("--threads must be >= 1")
    _check_output_path(args.report_out, parser)
    _check_output_path(args.csv_out, parser)
    data = _load_data(args)
    c_values = (
        _parse_list(args.c_grid, float, "--c-grid", parser)
        if args.c_grid
        else default_c_values()
    )
    delta_values = (
        _parse_list(args.delta_grid, float, "--delta-grid", parser)
        if args.delta_grid
        else default_delta_values()
    )
    m_values = (
        _parse_list(args.m_grid, int, "--m-grid", parser)
        if args.m_grid
        else default_m_values(data.l)
    )
    grid = GridSpec(
        c_values=c_values,
        delta_values=delta_values,
        m_values=m_values,
        folds=args.folds,
        seed=args.seed,
    )
    report = grid_search(
        data,
        grid,
        args.kernel,
        cro_gamma=args.cro_gamma,
        restarts=args.restarts,
        threads=args.threads,
        time_tiebreak=args.timing == "wall",
    )
    header_pairs = [
        ("data", args.data),
        ("kernel", args.kernel),
        ("folds", args.folds),
        ("seed", args.seed),
        ("timing", args.timing),
    ]
    doc = {"header": dict(header_pairs)}
    doc.update(report_document(report, timing=args.timing))
    _write_lines(args.report_out, [dump_document(doc).rstrip("\n")])
    lines = _header("cv", header_pairs)
    lines.extend(plot_csv_lines(report, timing=args.timing))
    _write_lines(args.csv_out, lines)
    best = report.best
    print(f"best_mean_accuracy {fmt_float(best.mean_accuracy)}")
    print(
        "best_config "
        f"c={fmt_float(best.config.c) if best.config.c is not None else 'NA'} "
        f"delta={fmt_float(best.config.delta) if best.config.delta is not None else 'NA'} "
        f"m={best.config.m}"
    )
    return EXIT_OK


def cmd_bench_sizes(args, parser) -> int:
    _check_output_path(args.out, parser)
    sizes = _parse_list(args.sizes, int, "--sizes", parser)
    rows = benchmark_scaling(
        sizes,
        features=args.features,
        m=args.clusters,
        seed=args.seed,
        gamma=args.gamma,
        restarts=args.restarts,
        include_v_matrix=not args.no_v_matrix,
    )
    zero = args.timing == "zero"

    def fmt_time(value: float | None) -> str:
        if value is None:
            return "NA"
        return fmt_float(0.0 if zero else value)

    lines = _header(
        "bench-sizes",
        [
            ("sizes", args.sizes),
            ("features", args.features),
            ("clusters", args.clusters),
            ("seed", args.seed),
            ("timing", args.timing),
        ],
    )
    lines.append("l,granulate_seconds,assembly_seconds,fit_seconds,v_matrix_seconds,accuracy")
    for row in rows:
        lines.append(
            csv_line(
                row.l,
                fmt_time(row.granulate_seconds),
                fmt_time(row.assembly_seconds),
                fmt_time(row.fit_seconds),
                fmt_time(row.v_matrix_seconds),
                row.holdout_accuracy,
            )
        )
    _write_lines(args.out, lines)
    return EXIT_OK


def cmd_bench_clusters(args, parser) -> int:
    _check_output_path(args.out, parser)
    gamma = _resolve_gamma(args, parser)
    data = _load_data(args)
    m_values = _parse_list(args.m_list, int, "--m-list", parser)
    if any(m < 1 for m in m_values):
        parser.error("m must be >= 1")
    config = CVConfig(
        kernel_kind=args.kernel,
        gamma=gamma,
        m=1,
        delta=args.delta if args.kernel == "rbf" else None,
        cro_gamma=args.cro_gamma,
    )
    rows = cluster_sweep(data, m_values, config, args.folds, args.seed, args.restarts)
    zero = args.timing == "zero"
    lines = _header(
        "bench-clusters",
        [
            ("data", args.data),
            ("kernel", args.kernel),
            ("gamma", fmt_float(gamma)),
            ("folds", args.folds),
            ("seed", args.seed),
            ("timing", args.timing),
        ],
    )
    lines.append("m,accuracy,train_seconds")
    for row in rows:
        lines.append(
            csv_line(row.m, row.mean_accuracy, 0.0 if zero else row.mean_train_seconds)
        )
    _write_lines(args.out, lines)
    return EXIT_OK


def cmd_granulate(args, parser) -> int:
    if args.clusters < 1:
        parser.error("m must be >= 1")
    _check_output_path(args.out, parser)
    data = _load_data(args)
    scaled, _ = minmax_scale(data)
    granulation = kmeans_granulate(scaled, args.clusters, args.seed, restarts=args.restarts)
    lines = _header(
        "granulate",
        [
            ("data", args.data),
            ("clusters", args.clusters),
            ("seed", args.seed),
            ("emit_v", args.emit_v),
        ],
    )
    if args.emit_v:
        measure = MeasureSpec.uniform()
        lines.append("sample_index,granule_index,v_value")
        for i in range(data.l):
            value = v_value(scaled.features[i], measure)
            lines.append(csv_line(i, int(granulation.assignments[i]), value))
    else:
        lines.append("sample_index,granule_index")
        for i in range(data.l):
            lines.append(csv_line(i, int(granulation.assignments[i])))
    lines.append(f"# clustering_error={fmt_float(granulation.clustering_error)}")
    _write_lines(args.out, lines)
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "train": cmd_train,
        "predict": cmd_predict,
        "cv": cmd_cv,
        "granulate": cmd_granulate,
    }
    try:
        if args.command == "bench":
            handler = cmd_bench_sizes if args.sweep == "sizes" else cmd_bench_clusters
            return handler(args, parser)
        return handlers[args.command](args, parser)
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
