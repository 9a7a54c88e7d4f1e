"""Workloads, timing loop and correctness checks of the lugsi benchmark.

Every workload is the same user session run over and over until the time
budget is spent:

- fit: build and save a model (``fit_s``). On ``cv_linear_wine`` this is
  the default linear grid search plus the refit of its best configuration;
  on the train workloads it is scale -> granulate -> invariants -> fit.
  Both end with ``save_model``.
- predict: ``load_model`` -> ``apply_scaling`` -> ``predict_labels`` on
  the rows to score. ``session_s`` is fit plus predict.
- check: the loaded model's decision values are bitwise equal to the
  in-memory model's, the labels follow from them, accuracy clears a
  floor, and a rerun with the same seed writes the same bytes.

Only public ``lugsi`` names are called, and always through their module
(``lugsi.kmeans_granulate(...)``) so the traced run's shims see them.
A ``LugsiError`` or a failed check marks the repetition as failed and the
run goes on.
"""

import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
import scipy

import lugsi
import lugsi.evaluation
import lugsi.serialize
import tracer

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
MIN_REPS = 3
SETUP_SAMPLES = 5
ACCURACY_FLOOR = 0.9

# The synthetic workloads: generate_ndc blobs with 5% of labels flipped,
# fitted with two k-means restarts, regularizer gamma = 1 and rbf width 1.
FEATURES = 32
BLOBS = 10
FLIP = 0.05
TRAIN_RESTARTS = 2
GAMMA = 1.0
DELTA = 1.0

END_TO_END_UNITS = {
    "fit_s": "s",
    "session_s": "s",
    "setup_s": "s",
    "holdout_accuracy": "fraction",
    "peak_rss_mb": "MB",
}


class SetupError(Exception):
    """The inputs or the package could not be prepared; no result is printed."""


def noisy_blobs(samples: int, features: int, blobs: int, flip: float, seed: int) -> lugsi.Dataset:
    """``generate_ndc`` blobs with a seeded share of the labels flipped.

    The blobs alone are separable, so every model scores 1.0 and accuracy
    could not show a quality regression. Exactly ``round(flip * samples)``
    distinct rows change label.
    """
    base = lugsi.generate_ndc(samples, features, blobs, seed)
    flipped = np.random.default_rng([seed, 1]).choice(
        samples, size=round(flip * samples), replace=False
    )
    labels = base.labels.copy()
    labels[flipped] = 1 - labels[flipped]
    return lugsi.Dataset(base.features, labels)


@dataclass(frozen=True)
class Case:
    """One input of a workload: rows to fit, rows to score, and the seed."""

    key: int
    train: lugsi.Dataset
    score: lugsi.Dataset
    seed: int


@dataclass(frozen=True)
class Fitted:
    model: object
    accuracy: float | None  # held-out accuracy known at fit time (cv), else None
    report: bytes = b""  # text that reruns with the same seed must reproduce


def train_model(data, m, seed, restarts, gamma, kernel, model_path):
    """scale -> granulate -> invariants -> fit -> save, as ``lugsi train`` does."""
    scaled, params = lugsi.minmax_scale(data)
    granulation = lugsi.kmeans_granulate(scaled, m, seed, restarts=restarts)
    invariants = lugsi.normalized_granule_invariants(
        scaled, granulation, lugsi.MeasureSpec.uniform()
    )
    if kernel is None:
        model, _ = lugsi.fit_linear_lugsi(scaled, granulation, invariants, gamma, params)
    else:
        model, _ = lugsi.fit_kernel_lugsi(scaled, granulation, invariants, kernel, gamma, params)
    lugsi.save_model(model, model_path)
    return model


@dataclass(frozen=True)
class CvWorkload:
    """Default linear grid search on data/wine.csv, then a refit of the best point."""

    name: str
    folds: int = 5
    restarts: int = 10
    c_values: tuple | None = None  # None: the default grid
    m_values: tuple | None = None
    accuracy_floor: float = ACCURACY_FLOOR

    def make_cases(self, seed: int) -> list[Case]:
        data = lugsi.load_csv(ROOT / "data" / "wine.csv")
        return [Case(0, data, data, seed)]

    def fit(self, case: Case, model_path: Path) -> Fitted:
        grid = lugsi.GridSpec.default(case.train.l, self.folds, case.seed)
        grid = replace(
            grid,
            c_values=self.c_values or grid.c_values,
            m_values=self.m_values or grid.m_values,
        )
        report = lugsi.grid_search(
            case.train, grid, "linear", restarts=self.restarts, threads=1, time_tiebreak=False
        )
        text = lugsi.serialize.dump_document(
            lugsi.evaluation.report_document(report, timing="zero")
        )
        best = report.best
        model = train_model(
            case.train, min(best.config.m, case.train.l), case.seed,
            self.restarts, best.config.gamma, None, model_path,
        )
        return Fitted(model, best.mean_accuracy, text.encode())


@dataclass(frozen=True)
class TrainWorkload:
    """One fit on noisy synthetic blobs, then scoring of held-out rows.

    ``datasets`` inputs are made from the seed and the repetitions take
    turns over them, so one unlucky draw moves the median less.
    """

    name: str
    kernel: str
    train_rows: int
    test_rows: int
    m: int
    datasets: int = 3
    accuracy_floor: float = ACCURACY_FLOOR

    def make_cases(self, seed: int) -> list[Case]:
        cases = []
        rows = self.train_rows + self.test_rows
        for key in range(self.datasets):
            case_seed = seed * self.datasets + key
            data = noisy_blobs(rows, FEATURES, BLOBS, FLIP, case_seed)
            train = data.subset(np.arange(self.train_rows))
            score = data.subset(np.arange(self.train_rows, rows))
            cases.append(Case(key, train, score, case_seed))
        return cases

    def fit(self, case: Case, model_path: Path) -> Fitted:
        kernel = None
        if self.kernel != "linear":
            kernel = lugsi.KernelSpec(self.kernel, delta=DELTA)
        model = train_model(
            case.train, self.m, case.seed, TRAIN_RESTARTS, GAMMA, kernel, model_path
        )
        return Fitted(model, None)


# Why each workload was chosen is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        CvWorkload("cv_linear_wine"),
        TrainWorkload("train_rbf_synth", "rbf", train_rows=3000, test_rows=12000, m=50),
        TrainWorkload("train_linear_synth", "linear", train_rows=8000, test_rows=2000, m=500),
    )
}


def check_predictions(model, loaded, rows: lugsi.Dataset, labels) -> list[str]:
    """Problems with a prediction made through the saved and reloaded model."""
    expected = lugsi.decision_values(model, lugsi.apply_scaling(rows, model.scaling).features)
    got = lugsi.decision_values(loaded, lugsi.apply_scaling(rows, loaded.scaling).features)
    problems = []
    if expected.shape != got.shape or expected.tobytes() != got.tobytes():
        problems.append("loaded model's decision values differ from the in-memory model's")
    if not np.array_equal(np.asarray(labels), (expected >= 0.5).astype(np.int64)):
        problems.append("predicted labels do not follow from the decision values")
    return problems


@dataclass(frozen=True)
class Rep:
    key: int
    fit_s: float
    predict_s: float
    accuracy: float

    @property
    def session_s(self) -> float:
        return self.fit_s + self.predict_s


@contextmanager
def _recording(recorder, run):
    with recorder.recording(run) if recorder is not None else nullcontext():
        yield


def run_rep(workload, case, model_path, recorder=None, run=0):
    """One fit/predict/check cycle; returns (Rep, problems, output bytes)."""
    started = time.perf_counter()
    with _recording(recorder, run):
        fitted = workload.fit(case, model_path)
    fit_s = time.perf_counter() - started
    started = time.perf_counter()
    with _recording(recorder, run):
        loaded = lugsi.load_model(model_path)
        scaled = lugsi.apply_scaling(case.score, loaded.scaling)
        labels = lugsi.predict_labels(loaded, scaled.features)
    predict_s = time.perf_counter() - started
    problems = check_predictions(fitted.model, loaded, case.score, labels)
    accuracy = fitted.accuracy
    if accuracy is None:
        accuracy = lugsi.accuracy(labels, case.score.labels)
    if accuracy < workload.accuracy_floor:
        problems.append(f"accuracy {accuracy:.4f} below the floor {workload.accuracy_floor}")
    output = fitted.report + Path(model_path).read_bytes()
    return Rep(case.key, fit_s, predict_s, accuracy), problems, output


@dataclass
class Tally:
    """Repetitions attempted and failed, and what failed."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    outputs: dict = field(default_factory=dict)
    reps: list = field(default_factory=list)

    def attempt(self, workload, cases, index, model_path, recorder=None, run=0):
        """Run repetition ``index`` on its case; returns its Rep or None."""
        case = cases[index % len(cases)]
        self.attempted += 1
        try:
            rep, problems, output = run_rep(workload, case, model_path, recorder, run)
        except lugsi.LugsiError as exc:
            self.failed += 1
            self.problems.append(f"repetition {index}: {type(exc).__name__}: {exc}")
            return None
        if self.outputs.setdefault(case.key, output) != output:
            problems.append("a rerun with the same seed wrote a different report or model")
        if problems:
            self.failed += 1
            self.problems.extend(f"repetition {index}: {p}" for p in problems)
        self.reps.append(rep)
        return rep


def measure_setup(workload, seed: int, samples: int = SETUP_SAMPLES):
    """Median of ``samples`` set-ups: a fresh interpreter importing lugsi,
    plus making the inputs. Returns (median seconds, inputs)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )
    times = []
    for _ in range(samples):
        started = time.perf_counter()
        try:
            subprocess.run(
                [sys.executable, "-c", "import lugsi"],
                env=env, cwd=ROOT, check=True, timeout=120,
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            )
        except (OSError, subprocess.SubprocessError) as exc:
            raise SetupError(f"importing lugsi in a fresh interpreter failed: {exc}") from exc
        imported = time.perf_counter() - started
        started = time.perf_counter()
        try:
            cases = workload.make_cases(seed)
        except lugsi.LugsiError as exc:
            raise SetupError(f"making the inputs failed: {exc}") from exc
        times.append(imported + time.perf_counter() - started)
    return statistics.median(times), cases


def _per_case(reps, value) -> float:
    """Mean over cases of the median over each case's repetitions."""
    by_case = defaultdict(list)
    for rep in reps:
        by_case[rep.key].append(value(rep))
    return statistics.fmean(statistics.median(v) for v in by_case.values())


@dataclass
class Result:
    workload: str
    seed: int
    trace: bool
    tally: Tally
    metrics: dict
    notes: list = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.tally.failed == 0 and self.tally.attempted > 0 and bool(self.tally.reps)

    def summary(self) -> dict:
        units = tracer.PER_LAYER_UNITS if self.trace else END_TO_END_UNITS
        return {
            "correct": self.correct,
            "attempted": self.tally.attempted,
            "failed": self.tally.failed,
            "metrics": {
                name: {"value": self.metrics[name], "unit": units[name]}
                for name in units
                if name in self.metrics
            },
        }


def run(workload, seed: int, seconds: float, trace: bool, setup_samples: int = SETUP_SAMPLES):
    """Set up, measure for ``seconds`` and check one workload."""
    setup_s, cases = measure_setup(workload, seed, setup_samples)
    OUT_DIR.mkdir(exist_ok=True)
    model_path = OUT_DIR / f"model-{workload.name}-{seed}-{os.getpid()}.json"
    try:
        if trace:
            return _run_traced(workload, cases, seed, seconds, model_path)
        return _run_untraced(workload, cases, seed, seconds, setup_s, model_path)
    finally:
        model_path.unlink(missing_ok=True)


def _run_untraced(workload, cases, seed, seconds, setup_s, model_path):
    tally = Tally()
    started = time.perf_counter()
    last = 0.0
    while tally.attempted < MIN_REPS or time.perf_counter() - started + last <= seconds:
        rep_started = time.perf_counter()
        tally.attempt(workload, cases, tally.attempted, model_path)
        last = time.perf_counter() - rep_started
    metrics = {"setup_s": setup_s}
    if tally.reps:
        metrics["fit_s"] = _per_case(tally.reps, lambda r: r.fit_s)
        metrics["session_s"] = _per_case(tally.reps, lambda r: r.session_s)
        metrics["holdout_accuracy"] = _per_case(tally.reps, lambda r: r.accuracy)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = Result(workload.name, seed, False, tally, metrics)
    if tally.reps:
        result.notes.append(
            f"{len(tally.reps)} repetitions over {len(cases)} input(s); predict phase "
            f"{_per_case(tally.reps, lambda r: r.predict_s):.6g} s"
        )
    return result


def _run_traced(workload, cases, seed, seconds, model_path):
    """Pairs of one untraced and one traced repetition on the same input.

    Per-layer metrics come from the traced repetitions; the paired
    difference of session time is the tracing overhead.
    """
    tally = Tally()
    recorder = tracer.Recorder()
    missing: set = set()
    per_run, traced_s, overhead_s = [], [], []
    started = time.perf_counter()
    last = 0.0
    pair = 0
    while pair < 1 or time.perf_counter() - started + last <= seconds:
        pair_started = time.perf_counter()
        plain = tally.attempt(workload, cases, pair, model_path)
        with tracer.shims_installed(recorder) as not_found:
            missing.update(not_found)
            traced = tally.attempt(workload, cases, pair, model_path, recorder, pair)
        if plain is not None and traced is not None:
            traced_s.append(traced.session_s)
            overhead_s.append(traced.session_s - plain.session_s)
            per_run.append(tracer.layer_metrics(recorder.spans, pair))
        pair += 1
        last = time.perf_counter() - pair_started
    metrics = {}
    if per_run:
        metrics = tracer.median_metrics(per_run)
        metrics["trace.traced_s"] = statistics.median(traced_s)
        metrics["trace.overhead_s"] = statistics.median(overhead_s)
    result = Result(workload.name, seed, True, tally, metrics)
    result.notes.append(f"{len(per_run)} traced repetitions, each paired with an untraced one")
    absent = tracer.absent_layers(missing)
    if missing:
        result.notes.append(f"shim targets not found: {', '.join(sorted(missing))}")
    if absent:
        result.notes.append(f"absent layers (reported as 0): {', '.join(absent)}")
    result.notes.extend(f"probe failed: {p}" for p in recorder.probe_errors[:5])
    _write_spans(result, recorder, sorted(missing), absent)
    return result


def _write_spans(result, recorder, missing, absent):
    path = OUT_DIR / f"trace-{result.workload}-{result.seed}.jsonl"
    head = {"environment": environment(result.seed), "missing": missing, "absent": absent}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(head) + "\n")
        for record in tracer.span_records(recorder.spans):
            fh.write(json.dumps(record) + "\n")
    result.notes.append(f"{len(recorder.spans)} spans written to {path.relative_to(ROOT)}")


def git_revision(root: Path = ROOT) -> str:
    """Commit of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _openblas() -> tuple[str, object]:
    """OpenBLAS version from numpy's build record, and its live thread count."""
    version = "unknown"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        version = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError):
        pass
    threads = os.environ.get("OPENBLAS_NUM_THREADS")
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return version, int(getter())
    return version, threads


def environment(seed: int) -> dict:
    """What the numbers depend on besides the code."""
    openblas, blas_threads = _openblas()
    return {
        "git_revision": git_revision(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads,
        "seed": seed,
    }
