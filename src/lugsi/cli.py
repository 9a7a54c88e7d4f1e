"""Command-line interface.

Subcommands: train, predict, cv, bench, granulate. Every run is fully
determined by its flags; all randomness flows from --seed. Output files
carry a config header for provenance: every flag as given, in parser
order, except output paths; a flag left unset is omitted and its default
applies. Every float is spelled as its shortest round-trip repr, so
reruns with identical flags on one host produce byte-identical files (for
cv/bench pass --timing zero, which also drops wall time from the
best-configuration tie-break). Across hosts, or with another BLAS thread
count, the last bits of a product may move.

train runs the cv fold pipeline, evaluation.train_fold_pipeline, on all
rows: each granule's invariant comes from v-values rescaled to a
per-granule maximum of 1. So train with the flags of a cv configuration
(--clusters m, --gamma 1/C, --kernel, --delta, --seed, --restarts,
uniform measure) writes exactly the model that a cv fold fits on the
same rows. It prints the objective and gradient_norm, the exact norm of
the objective's gradient at the returned solution. An m above the number
of distinct scaled rows, which cv clips (m_clipped), is a data error for
train, raised before any k-means.

A granule-count sweep at one C is cv --c-grid C --m-grid m1,m2,...;
its report gives each m's mean_accuracy and mean_train_seconds.

A kernel flag that the chosen kernel does not use (--delta or --delta-grid
without rbf, --cro-gamma without cro) is a usage error, not ignored.

Exit codes: 0 success, 2 usage error, 3 data error, 4 numeric failure.
"""

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .dataset import Dataset, apply_scaling, load_csv, load_sparse, minmax_scale
from .errors import DataError, NumericError
from .evaluation import (
    SCALING_DATA_CLUSTERS,
    CVConfig,
    GridSpec,
    benchmark_scaling,
    default_c_values,
    default_delta_values,
    default_m_values,
    distinct_rows,
    grid_search,
    plot_csv_lines,
    report_document,
    train_fold_pipeline,
)
from .granulation import kmeans_granulate
from .invariants import MeasureSpec, granule_v_vectors
from .kernels import KernelSpec
from .serialize import csv_line, fmt_float, write_document
from .solver import decision_values, load_model, save_model

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4
# parsed entries that shape no output: the output paths and the subcommand routing
NOT_PROVENANCE = (
    "out", "model_out", "report_out", "csv_out", "command", "sweep", "handler", "parser"
)


def _add_data_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--data", required=True, help="input data file")
    parser.add_argument("--format", choices=("csv", "sparse"), default="csv")
    parser.add_argument("--has-header", action="store_true", help="csv: first row is a header")
    parser.add_argument(
        "--label-column", type=_at_least(0, "--label-column"), help="csv: label column index"
    )
    parser.add_argument(
        "--dimension-hint", type=_at_least(1, "--dimension-hint"), help="sparse: feature count"
    )


def _add_kernel_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--kernel", choices=("linear", "rbf", "cro"), default="linear")
    parser.add_argument("--delta", type=float, default=None, help="rbf width (default 1)")
    parser.add_argument("--cro-gamma", type=float, default=None, help="cro constant (default 0)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lugsi", description=__doc__)
    parser.add_argument("--version", action="version", version=f"lugsi {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    # integer flags are checked as they are parsed, before any input is read
    seed, restarts = _at_least(0, "--seed"), _at_least(1, "--restarts")
    clusters, folds = _at_least(1, "m"), _at_least(2, "--folds")
    threads = _at_least(1, "--threads")

    p_train = sub.add_parser("train", help="fit a model and write it to disk")
    _add_data_flags(p_train)
    _add_kernel_flags(p_train)
    p_train.add_argument("--gamma", type=float, default=None, help="regularization weight")
    p_train.add_argument("--cost", type=float, default=None, help="tradeoff C (gamma = 1/C)")
    p_train.add_argument("--clusters", type=clusters, default=1, help="granule count m")
    p_train.add_argument("--seed", type=seed, default=0)
    p_train.add_argument("--restarts", type=restarts, default=10, help="k-means restarts")
    p_train.add_argument(
        "--measure", choices=("uniform", "empirical"), default="uniform",
        help="v-value measure (empirical uses the training set as reference); "
        "each granule's v-values are normalized to maximum 1, as in cv",
    )
    p_train.add_argument("--model-out", required=True, type=_output_path)
    p_train.set_defaults(handler=cmd_train, parser=p_train)

    p_pred = sub.add_parser("predict", help="apply a stored model to data")
    _add_data_flags(p_pred)
    p_pred.add_argument("--model", required=True)
    p_pred.add_argument("--out", required=True, type=_output_path)
    p_pred.set_defaults(handler=cmd_predict, parser=p_pred)

    p_cv = sub.add_parser("cv", help="cross-validated grid search")
    _add_data_flags(p_cv)
    _add_kernel_flags(p_cv)
    p_cv.add_argument("--c-grid", default=None, help="comma-separated C values")
    p_cv.add_argument("--delta-grid", default=None, help="comma-separated delta values")
    p_cv.add_argument("--m-grid", default=None, help="comma-separated m values")
    p_cv.add_argument("--folds", type=folds, default=5)
    p_cv.add_argument("--seed", type=seed, default=0)
    p_cv.add_argument("--restarts", type=restarts, default=10)
    p_cv.add_argument(
        "--threads", type=threads, default=1, help="worker processes over (fold, m) units"
    )
    p_cv.add_argument("--timing", choices=("wall", "zero"), default="wall")
    p_cv.add_argument("--report-out", required=True, type=_output_path)
    p_cv.add_argument("--csv-out", required=True, type=_output_path)
    p_cv.set_defaults(handler=cmd_cv, parser=p_cv)

    m_sweep = "a granule-count sweep at one C is: lugsi cv --c-grid C --m-grid m1,m2,..."
    p_bench = sub.add_parser("bench", help="timing sweep over data sizes", description=m_sweep)
    bench_sub = p_bench.add_subparsers(dest="sweep", required=True)

    p_sizes = bench_sub.add_parser("sizes", help="scaling sweep over synthetic data sizes")
    p_sizes.add_argument("--sizes", required=True, help="comma-separated ascending sizes")
    p_sizes.add_argument("--features", type=_at_least(1, "--features"), default=32)
    p_sizes.add_argument("--clusters", type=clusters, default=50, help="granule count m")
    p_sizes.add_argument("--gamma", type=float, default=1.0)
    p_sizes.add_argument("--seed", type=seed, default=0)
    p_sizes.add_argument("--restarts", type=restarts, default=2)
    p_sizes.add_argument("--timing", choices=("wall", "zero"), default="wall")
    p_sizes.add_argument("--out", required=True, type=_output_path)
    p_sizes.set_defaults(handler=cmd_bench_sizes, parser=p_sizes)

    p_gran = sub.add_parser("granulate", help="cluster the data and emit assignments")
    _add_data_flags(p_gran)
    p_gran.add_argument("--clusters", type=clusters, required=True, help="granule count m")
    p_gran.add_argument("--seed", type=seed, default=0)
    p_gran.add_argument("--restarts", type=restarts, default=10)
    p_gran.add_argument("--emit-v", action="store_true", help="include uniform-measure v-values")
    p_gran.add_argument("--out", required=True, type=_output_path)
    p_gran.set_defaults(handler=cmd_granulate, parser=p_gran)

    return parser


def _check_format_flags(args, parser) -> None:
    """A flag of the other input format is a usage error, not silently ignored."""
    if args.format == "sparse" and (args.has_header or args.label_column is not None):
        flag = "--has-header" if args.has_header else "--label-column"
        parser.error(f"{flag} applies to --format csv only")
    if args.format == "csv" and args.dimension_hint is not None:
        parser.error("--dimension-hint applies to --format sparse only")


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


def _check_kernel_flags(parser, args, deltas, delta_flag: str) -> float:
    """Usage errors of the kernel flags; returns the cro gamma (0 if not given).

    A delta or cro gamma that KernelSpec rejects is one whatever the kernel.
    So is a flag the kernel does not use: `delta_flag` unless the kernel is
    rbf, --cro-gamma unless it is cro.
    """
    cro_gamma = 0.0 if args.cro_gamma is None else args.cro_gamma
    try:
        for delta in deltas:
            KernelSpec("rbf", delta=delta)
        KernelSpec(args.kernel, cro_gamma=cro_gamma)
    except DataError as exc:
        parser.error(str(exc))
    for flag, kind in ((delta_flag, "rbf"), ("--cro-gamma", "cro")):
        # flag[2:] with "_" for "-" is the flag's argparse dest
        if getattr(args, flag[2:].replace("-", "_")) is not None and args.kernel != kind:
            parser.error(f"{flag} applies to --kernel {kind} only")
    return cro_gamma


def _parse_list(text: str | None, kind: type, flag: str, parser, default=None) -> tuple:
    """Comma-separated values of `kind`; an absent or empty flag gives `default` if set."""
    if not text and default is not None:
        return default
    try:
        values = tuple(kind(tok) for tok in text.split(",") if tok.strip())
    except argparse.ArgumentTypeError as exc:
        parser.error(str(exc))
    except ValueError:
        noun = "numbers" if kind is float else "integers"
        parser.error(f"{flag} expects comma-separated {noun}")
    if not values:
        parser.error(f"{flag} must not be empty")
    return values


def _at_least(low: int, name: str):
    """argparse type of an integer flag that must be at least `low`."""

    def parse(text: str) -> int:
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"{name} must be >= {low}")
        return int(text)

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


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


def _provenance(args) -> dict:
    """An output's config header: every flag as given, in parser order, except
    NOT_PROVENANCE; a flag left at None was not given, and its default applies."""
    return {k: v for k, v in vars(args).items() if k not in NOT_PROVENANCE and v is not None}


def _write_table(path: str, command: str, args, columns: str, rows, trailer=()) -> None:
    """Write a provenance line, the column line, one CSV line per row, then the trailer."""
    provenance = " ".join(f"{key}={value}" for key, value in _provenance(args).items())
    lines = [f"# lugsi {command} format_version=1 {provenance}", columns]
    lines.extend(csv_line(*row) for row in rows)
    lines.extend(trailer)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("".join(line + "\n" for line in lines))


def cmd_train(args, parser) -> int:
    gamma = _resolve_gamma(args.gamma, args.cost, parser, args.clusters)
    delta = 1.0 if args.delta is None else args.delta
    cro_gamma = _check_kernel_flags(parser, args, (delta,), "--delta")
    data = _load_data(args)
    if args.clusters > data.l:
        raise DataError(f"m={args.clusters} exceeds the number of samples {data.l}")
    distinct = distinct_rows(minmax_scale(data)[0])
    if args.clusters > distinct:  # the pipeline would clip m to the distinct rows
        raise DataError(f"m={args.clusters} exceeds the {distinct} distinct scaled rows")
    config = CVConfig(args.kernel, gamma, args.clusters, delta=delta, cro_gamma=cro_gamma)
    model, diagnostics, wall = train_fold_pipeline(
        data, config, args.seed, args.restarts, args.measure
    )
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
    rows = ((i, values[i], int(labels[i])) for i in range(values.shape[0]))
    _write_table(args.out, "predict", args, "index,decision_value,label", rows)
    return EXIT_OK


def cmd_cv(args, parser) -> int:
    c_values = _parse_list(args.c_grid, float, "--c-grid", parser, default_c_values())
    delta_values = _parse_list(
        args.delta_grid, float, "--delta-grid", parser, default_delta_values()
    )
    cro_gamma = _check_kernel_flags(parser, args, delta_values, "--delta-grid")
    if args.delta is not None:
        parser.error("cv takes its rbf widths from --delta-grid, not --delta")
    # The default m grid depends on the row count, so it (and its gamma*m) waits for the data.
    m_values = _parse_list(args.m_grid, _at_least(1, "m"), "--m-grid", parser, default=())
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
        cro_gamma=cro_gamma,
        restarts=args.restarts,
        threads=args.threads,
        time_tiebreak=args.timing == "wall",
    )
    doc = {"header": _provenance(args)}
    doc.update(report_document(report, timing=args.timing))
    write_document(args.report_out, doc)
    columns, *rows = plot_csv_lines(report, timing=args.timing)
    # plot_csv_lines rows come joined already; a one-field row is written as is.
    _write_table(args.csv_out, "cv", args, columns, ((row,) for row in rows))
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
    # every blob of the synthetic data needs a sample
    size = _at_least(SCALING_DATA_CLUSTERS, "--sizes")
    sizes = _parse_list(args.sizes, size, "--sizes", parser)
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        parser.error("--sizes must be strictly ascending")
    gamma = _resolve_gamma(args.gamma, None, parser, args.clusters)
    rows = benchmark_scaling(
        sizes,
        features=args.features,
        m=args.clusters,
        seed=args.seed,
        gamma=gamma,
        restarts=args.restarts,
    )
    zero = args.timing == "zero"

    def fmt_time(value: float | None) -> str:
        if value is None:
            return "NA"
        return fmt_float(0.0 if zero else value)

    _write_table(
        args.out,
        "bench-sizes",
        args,
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


def cmd_granulate(args, parser) -> int:
    data = _load_data(args)
    scaled, _ = minmax_scale(data)
    granulation = kmeans_granulate(scaled, args.clusters, args.seed, restarts=args.restarts)
    assignments = enumerate(granulation.assignments.tolist())
    if args.emit_v:
        values = np.empty(scaled.l)
        values[granulation.order] = granule_v_vectors(scaled, granulation, MeasureSpec.uniform()).v
        columns = "sample_index,granule_index,v_value"
        rows = ((i, g, values[i]) for i, g in assignments)
    else:
        columns, rows = "sample_index,granule_index", assignments
    trailer = [f"# clustering_error={fmt_float(granulation.clustering_error)}"]
    _write_table(args.out, "granulate", args, columns, rows, trailer)
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if "format" in args:
        _check_format_flags(args, args.parser)
    try:
        return args.handler(args, args.parser)
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
