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
import math
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
    p_train.add_argument("--model-out", required=True, type=_output_path)
    p_train.set_defaults(handler=cmd_train)

    p_pred = sub.add_parser("predict", help="apply a stored model to data")
    _add_data_flags(p_pred)
    p_pred.add_argument("--model", required=True)
    p_pred.add_argument("--out", required=True, type=_output_path)
    p_pred.set_defaults(handler=cmd_predict)

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
    p_cv.add_argument("--report-out", required=True, type=_output_path)
    p_cv.add_argument("--csv-out", required=True, type=_output_path)
    p_cv.set_defaults(handler=cmd_cv)

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
    p_sizes.add_argument("--out", required=True, type=_output_path)
    p_sizes.set_defaults(handler=cmd_bench_sizes)

    p_mlist = bench_sub.add_parser("clusters", help="accuracy/time sweep over granule counts")
    _add_data_flags(p_mlist)
    _add_kernel_flags(p_mlist)
    _add_regularizer_flags(p_mlist)
    p_mlist.add_argument("--m-list", required=True, help="comma-separated m values")
    p_mlist.add_argument("--folds", type=int, default=5)
    p_mlist.add_argument("--seed", type=int, default=0)
    p_mlist.add_argument("--restarts", type=int, default=10)
    p_mlist.add_argument("--timing", choices=("wall", "zero"), default="wall")
    p_mlist.add_argument("--out", required=True, type=_output_path)
    p_mlist.set_defaults(handler=cmd_bench_clusters)

    p_gran = sub.add_parser("granulate", help="cluster the data and emit assignments")
    _add_data_flags(p_gran)
    p_gran.add_argument("--clusters", type=int, required=True, help="granule count m")
    p_gran.add_argument("--seed", type=int, default=0)
    p_gran.add_argument("--restarts", type=int, default=10)
    p_gran.add_argument("--emit-v", action="store_true", help="include uniform-measure v-values")
    p_gran.add_argument("--out", required=True, type=_output_path)
    p_gran.set_defaults(handler=cmd_granulate)

    return parser


def _load_data(args) -> Dataset:
    if args.format == "csv":
        return load_csv(args.data, has_header=args.has_header, label_column=args.label_column)
    return load_sparse(args.data, dimension_hint=args.dimension_hint)


def _resolve_gamma(
    gamma: float | None, cost: float | None, parser, m: int, cost_flag: str = "--cost"
) -> float:
    """gamma from --gamma or from the cost C = 1/gamma of `cost_flag`; m is the
    largest granule count it is used with, since the solve shifts by gamma*m."""
    if gamma is not None and cost is not None:
        parser.error("--gamma and --cost are mutually exclusive")
    for flag, value in ((cost_flag, cost), ("--gamma", gamma)):
        if value is not None and not 0 < value < math.inf:
            parser.error(f"{flag} must be positive")
    if cost is None:
        gamma = 1.0 if gamma is None else gamma
    elif not 1.0 / cost < math.inf:
        parser.error(f"{cost_flag} {cost!r} is too small: 1/C is not a finite gamma")
    else:
        gamma = 1.0 / cost
    if not gamma * m < math.inf:
        parser.error(f"gamma*m overflows for gamma={gamma!r} and m={m}")
    return gamma


def _check_kernel_flags(parser, kind: str, deltas, cro_gamma: float) -> None:
    """A delta or cro gamma that KernelSpec rejects is a usage error, whatever the kernel."""
    try:
        for delta in deltas:
            KernelSpec("rbf", delta=delta)
        KernelSpec(kind, cro_gamma=cro_gamma)
    except DataError as exc:
        parser.error(str(exc))


def _parse_list(text: str | None, kind: type, flag: str, parser, default=None) -> tuple:
    """Comma-separated values of `kind`; an absent or empty flag gives `default` if set."""
    if not text and default is not None:
        return default
    try:
        values = tuple(kind(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        noun = "integers" if kind is int else "numbers"
        parser.error(f"{flag} expects comma-separated {noun}")
    if not values:
        parser.error(f"{flag} must not be empty")
    return values


def _output_path(text: str) -> str:
    """argparse type of an output file flag: a file path in an existing directory."""
    path = Path(text)
    if not path.parent.exists():
        raise argparse.ArgumentTypeError(f"output directory does not exist: {path.parent}")
    if not path.parent.is_dir():
        raise argparse.ArgumentTypeError(f"output directory is not a directory: {path.parent}")
    if path.is_dir():
        raise argparse.ArgumentTypeError(f"output path is a directory: {path}")
    return text


def _write_table(path: str, command: str, pairs, columns: str, rows, trailer=()) -> None:
    """Write a provenance line, the column line, one CSV line per row, then the trailer."""
    provenance = " ".join(f"{key}={value}" for key, value in pairs)
    lines = [f"# lugsi {command} format_version=1 {provenance}", columns]
    lines.extend(csv_line(*row) for row in rows)
    lines.extend(trailer)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("".join(line + "\n" for line in lines))


def cmd_train(args, parser) -> int:
    gamma = _resolve_gamma(args.gamma, args.cost, parser, args.clusters)
    if args.clusters < 1:
        parser.error("m must be >= 1")
    _check_kernel_flags(parser, args.kernel, (args.delta,), args.cro_gamma)
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
    model = load_model(args.model)
    data = _load_data(args)
    scaled = apply_scaling(data, model.scaling)
    values = decision_values(model, scaled.features)
    labels = (values >= 0.5).astype(np.int64)
    _write_table(
        args.out,
        "predict",
        [("model", args.model), ("data", args.data)],
        "index,decision_value,label",
        ((i, values[i], int(labels[i])) for i in range(values.shape[0])),
    )
    return EXIT_OK


def cmd_cv(args, parser) -> int:
    if args.threads < 1:
        parser.error("--threads must be >= 1")
    c_values = _parse_list(args.c_grid, float, "--c-grid", parser, default_c_values())
    delta_values = _parse_list(
        args.delta_grid, float, "--delta-grid", parser, default_delta_values()
    )
    _check_kernel_flags(parser, args.kernel, delta_values, args.cro_gamma)
    # The default m grid depends on the row count, so it (and its gamma*m) waits for the data.
    m_values = _parse_list(args.m_grid, int, "--m-grid", parser, default=())
    for c in c_values:
        _resolve_gamma(None, c, parser, max(m_values, default=1), "--c-grid")
    data = _load_data(args)
    grid = GridSpec(
        c_values=c_values,
        delta_values=delta_values,
        m_values=m_values or default_m_values(data.l),
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
    keys = ("data", "kernel", "folds", "seed", "timing")
    header_pairs = [(key, getattr(args, key)) for key in keys]
    doc = {"header": dict(header_pairs)}
    doc.update(report_document(report, timing=args.timing))
    Path(args.report_out).write_text(dump_document(doc), encoding="utf-8", newline="\n")
    columns, *rows = plot_csv_lines(report, timing=args.timing)
    # plot_csv_lines rows come joined already; a one-field row is written as is.
    _write_table(args.csv_out, "cv", header_pairs, columns, ((row,) for row in rows))
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
    sizes = _parse_list(args.sizes, int, "--sizes", parser)
    gamma = _resolve_gamma(args.gamma, None, parser, args.clusters)
    rows = benchmark_scaling(
        sizes,
        features=args.features,
        m=args.clusters,
        seed=args.seed,
        gamma=gamma,
        restarts=args.restarts,
        include_v_matrix=not args.no_v_matrix,
    )
    zero = args.timing == "zero"

    def fmt_time(value: float | None) -> str:
        if value is None:
            return "NA"
        return fmt_float(0.0 if zero else value)

    _write_table(
        args.out,
        "bench-sizes",
        [(key, getattr(args, key)) for key in ("sizes", "features", "clusters", "seed", "timing")],
        "l,granulate_seconds,assembly_seconds,fit_seconds,v_matrix_seconds,accuracy",
        (
            (
                row.l,
                fmt_time(row.granulate_seconds),
                fmt_time(row.assembly_seconds),
                fmt_time(row.fit_seconds),
                fmt_time(row.v_matrix_seconds),
                row.holdout_accuracy,
            )
            for row in rows
        ),
    )
    return EXIT_OK


def cmd_bench_clusters(args, parser) -> int:
    m_values = _parse_list(args.m_list, int, "--m-list", parser)
    gamma = _resolve_gamma(args.gamma, args.cost, parser, max(m_values))
    if any(m < 1 for m in m_values):
        parser.error("m must be >= 1")
    _check_kernel_flags(parser, args.kernel, (args.delta,), args.cro_gamma)
    data = _load_data(args)
    config = CVConfig(
        kernel_kind=args.kernel,
        gamma=gamma,
        m=1,
        delta=args.delta if args.kernel == "rbf" else None,
        cro_gamma=args.cro_gamma,
    )
    rows = cluster_sweep(data, m_values, config, args.folds, args.seed, args.restarts)
    zero = args.timing == "zero"
    _write_table(
        args.out,
        "bench-clusters",
        [
            ("data", args.data),
            ("kernel", args.kernel),
            ("gamma", fmt_float(gamma)),
            ("folds", args.folds),
            ("seed", args.seed),
            ("timing", args.timing),
        ],
        "m,accuracy,train_seconds",
        ((row.m, row.mean_accuracy, 0.0 if zero else row.mean_train_seconds) for row in rows),
    )
    return EXIT_OK


def cmd_granulate(args, parser) -> int:
    if args.clusters < 1:
        parser.error("m must be >= 1")
    data = _load_data(args)
    scaled, _ = minmax_scale(data)
    granulation = kmeans_granulate(scaled, args.clusters, args.seed, restarts=args.restarts)
    assignments = enumerate(granulation.assignments.tolist())
    if args.emit_v:
        measure = MeasureSpec.uniform()
        columns = "sample_index,granule_index,v_value"
        rows = ((i, g, v_value(scaled.features[i], measure)) for i, g in assignments)
    else:
        columns, rows = "sample_index,granule_index", assignments
    _write_table(
        args.out,
        "granulate",
        [(key, getattr(args, key)) for key in ("data", "clusters", "seed", "emit_v")],
        columns,
        rows,
        trailer=[f"# clustering_error={fmt_float(granulation.clustering_error)}"],
    )
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args, parser)
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
