"""Benchmark of the lugsi classifier.

Run from the root of the repository:

    python3 perfbench/run.py --workload cv_linear_wine --seed 1 --seconds 36 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` wraps each
layer's public functions in timing shims and reports per-layer metrics
instead. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--workload all``
runs every workload, each in a process of its own, and sums them up.

Exit codes: 0 all checks passed, 1 a check or an operation failed,
2 the package or its inputs could not be set up (no result is printed).
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("cv_linear_wine", "train_rbf_synth", "train_linear_synth")
EXIT_SETUP = 2


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds < 0:
        parser.error("--seconds must be >= 0")
    return args


def limit_blas_threads() -> None:
    """Let BLAS use at most one thread per core this process may run on."""
    cores = str(len(os.sched_getaffinity(0)))
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(variable, cores)


def print_result(result, environment: dict) -> None:
    print(f"lugsi benchmark: workload={result.workload} seed={result.seed} "
          f"trace={int(result.trace)}")
    print("environment " + json.dumps(environment))
    summary = result.summary()
    for name, metric in summary["metrics"].items():
        print(f"  {name:32s} {metric['value']:.6g} {metric['unit']}")
    print(f"  {'error_rate':32s} {summary['failed']}/{summary['attempted']} failed/attempted")
    for note in result.notes:
        print(f"  note: {note}")
    for problem in result.tally.problems[:20]:
        print(f"  FAILED: {problem}")


def run_all(args) -> int:
    """Each workload in a child process; a failing one does not stop the rest."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        child = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
        print(child.stdout, end="", flush=True)
        lines = child.stdout.strip().splitlines()
        try:
            summary = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            summary = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        total["correct"] = total["correct"] and summary["correct"]
        total["attempted"] += summary["attempted"]
        total["failed"] += summary["failed"]
        for metric, value in summary["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(total))
    return 0 if total["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "lugsi" / "__init__.py").is_file():
        print(f"error: lugsi sources not found under {ROOT / 'src'}", file=sys.stderr)
        return EXIT_SETUP
    limit_blas_threads()
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(ROOT / "src"))
    import harness

    try:
        result = harness.run(
            harness.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace)
        )
    except harness.SetupError as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return EXIT_SETUP
    print_result(result, harness.environment(args.seed))
    print(json.dumps(result.summary()))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
