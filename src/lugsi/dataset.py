"""Dataset loading, scaling, splitting, and synthesis.

The canonical in-memory representation is :class:`Dataset`: a dense
row-major float matrix plus a {0,1} label vector. Loaders accept labels in
either the 0/1 or the -1/+1 convention (-1 is remapped to 0 on ingestion).
All solvers downstream assume features have been minmax scaled to the unit
cube, which is what makes the uniform-measure v-values well defined.
"""

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError
from .rng import make_rng


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, copy=True)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class Dataset:
    """Feature matrix (l rows, n columns) with binary labels.

    Labels are stored as {0,1} end-to-end. Construction validates shape,
    finiteness, and the label alphabet; instances are immutable and safe
    to share between threads.
    """

    features: np.ndarray
    labels: np.ndarray
    feature_names: tuple | None = None

    def __post_init__(self):
        features = np.asarray(self.features, dtype=np.float64)
        labels = np.asarray(self.labels)
        if features.ndim != 2:
            raise DataError("features must be a 2-d matrix")
        l, n = features.shape
        if l < 1 or n < 1:
            raise DataError("empty dataset: need at least one row and one column")
        if labels.shape != (l,):
            raise DataError(f"labels length {labels.shape} does not match {l} rows")
        if not np.all(np.isfinite(features)):
            raise DataError("features contain missing or non-finite values")
        if not np.isin(labels, (0, 1)).all():
            raise DataError("labels must be 0 or 1")
        if self.feature_names is not None and len(self.feature_names) != n:
            raise DataError("feature_names length does not match column count")
        object.__setattr__(self, "features", _frozen(features))
        object.__setattr__(self, "labels", _frozen(labels.astype(np.int64)))
        if self.feature_names is not None:
            object.__setattr__(self, "feature_names", tuple(self.feature_names))

    @property
    def l(self) -> int:
        return self.features.shape[0]

    @property
    def n(self) -> int:
        return self.features.shape[1]

    def subset(self, indices) -> "Dataset":
        """Row subset as a new Dataset (used for CV folds)."""
        idx = np.asarray(indices, dtype=np.int64)
        if idx.size == 0:
            raise DataError("empty dataset: cannot take an empty subset")
        return Dataset(self.features[idx], self.labels[idx], self.feature_names)


@dataclass(frozen=True)
class ScalingParams:
    """Per-feature minima and maxima from a training set.

    A feature with minimum == maximum is mapped to the constant 0 rather
    than dropped, so the column count stays stable across folds.
    """

    minimum: np.ndarray
    maximum: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.minimum, dtype=np.float64)
        hi = np.asarray(self.maximum, dtype=np.float64)
        if lo.ndim != 1 or lo.shape != hi.shape:
            raise DataError("scaling minimum/maximum must be equal-length vectors")
        if np.any(lo > hi):
            raise DataError("scaling minimum exceeds maximum")
        object.__setattr__(self, "minimum", _frozen(lo))
        object.__setattr__(self, "maximum", _frozen(hi))

    @property
    def n(self) -> int:
        return self.minimum.shape[0]


@dataclass(frozen=True)
class FoldPlan:
    """Deterministic assignment of each sample to one test fold."""

    seed: int
    fold_count: int
    fold_assignments: np.ndarray

    def __post_init__(self):
        assignments = np.asarray(self.fold_assignments, dtype=np.int64)
        if assignments.ndim != 1:
            raise DataError("fold_assignments must be a vector")
        if assignments.size and (assignments.min() < 0 or assignments.max() >= self.fold_count):
            raise DataError("fold index out of range")
        object.__setattr__(self, "fold_assignments", _frozen(assignments))

    def test_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.fold_assignments == fold)

    def train_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.fold_assignments != fold)


def _parse_label(raw: str, where: str) -> tuple[int, bool]:
    """Parse one label; returns (value, was_negative_one)."""
    try:
        value = float(raw)
    except ValueError:
        raise DataError(f"non-binary label at {where}: {raw!r}") from None
    if value == -1.0:
        return 0, True
    if value == 0.0:
        return 0, False
    if value == 1.0:
        return 1, False
    raise DataError(f"non-binary label at {where}: {raw!r}")


def _check_label_convention(saw_negative: bool, saw_zero: bool) -> None:
    if saw_negative and saw_zero:
        raise DataError("ambiguous label convention: file mixes -1 and 0 labels")


def _read_lines(path) -> list[str]:
    """All lines of a UTF-8 text file, endings kept; unreadable input is a DataError."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"file not found: {path}")
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            return fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from None


def load_csv(path, has_header: bool = False, label_column: int | None = None) -> Dataset:
    """Load a dense CSV file into a Dataset.

    The label column defaults to the last column. Labels may follow the
    0/1 or -1/+1 convention; anything else is rejected with the offending
    row number (1-based, counting the header if present).
    """
    rows: list[list[str]] = []
    header: list[str] | None = None
    for row in csv.reader(_read_lines(path)):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if has_header and header is None:
            header = [cell.strip() for cell in row]
            continue
        rows.append([cell.strip() for cell in row])
    if not rows:
        raise DataError(f"empty file: {path}")

    width = len(rows[0])
    if width < 2:
        raise DataError("need at least one feature column plus the label column")
    label_idx = width - 1 if label_column is None else label_column
    if label_idx < 0 or label_idx >= width:
        raise DataError(f"label column {label_idx} out of range for {width} columns")

    features = np.empty((len(rows), width - 1), dtype=np.float64)
    labels = np.empty(len(rows), dtype=np.int64)
    saw_negative = saw_zero = False
    offset = 1 if has_header else 0
    for i, row in enumerate(rows):
        row_no = i + 1 + offset
        if len(row) != width:
            raise DataError(f"malformed row {row_no}: expected {width} cells, got {len(row)}")
        value, negative = _parse_label(row[label_idx], f"row {row_no}")
        saw_negative |= negative
        saw_zero |= value == 0 and not negative
        labels[i] = value
        col = 0
        for j, cell in enumerate(row):
            if j == label_idx:
                continue
            try:
                features[i, col] = float(cell)
            except ValueError:
                raise DataError(f"malformed row {row_no}: bad value {cell!r}") from None
            col += 1
    _check_label_convention(saw_negative, saw_zero)

    names = None
    if header is not None:
        names = tuple(name for j, name in enumerate(header) if j != label_idx)
    return Dataset(features, labels, names)


def load_sparse(path, dimension_hint: int | None = None) -> Dataset:
    """Load a sparse "label idx:val ..." file into a dense Dataset.

    Indices are 1-based and must be strictly ascending within a line.
    Unspecified entries are 0. Without a dimension hint the width is the
    largest index seen in the file.
    """
    parsed: list[tuple[int, list[tuple[int, float]]]] = []
    saw_negative = saw_zero = False
    max_index = 0
    for line_no, line in enumerate(_read_lines(path), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        value, negative = _parse_label(tokens[0], f"line {line_no}")
        saw_negative |= negative
        saw_zero |= value == 0 and not negative
        entries: list[tuple[int, float]] = []
        previous = 0
        for token in tokens[1:]:
            try:
                idx_text, val_text = token.split(":", 1)
                idx = int(idx_text)
                val = float(val_text)
            except ValueError:
                raise DataError(f"malformed entry {token!r} at line {line_no}") from None
            if idx < 1:
                raise DataError(f"index {idx} below 1 at line {line_no}")
            if idx <= previous:
                raise DataError(f"non-ascending index {idx} at line {line_no}")
            if dimension_hint is not None and idx > dimension_hint:
                raise DataError(
                    f"index {idx} exceeds dimension hint {dimension_hint} at line {line_no}"
                )
            previous = idx
            entries.append((idx, val))
        max_index = max(max_index, previous)
        parsed.append((value, entries))
    _check_label_convention(saw_negative, saw_zero)
    if not parsed:
        raise DataError(f"empty file: {path}")
    n = dimension_hint if dimension_hint is not None else max_index
    if n < 1:
        raise DataError("cannot infer dimension: file has no feature entries and no hint")
    features = np.zeros((len(parsed), n), dtype=np.float64)
    labels = np.empty(len(parsed), dtype=np.int64)
    for i, (label, entries) in enumerate(parsed):
        labels[i] = label
        for idx, val in entries:
            features[i, idx - 1] = val
    return Dataset(features, labels)


def minmax_scale(data: Dataset) -> tuple[Dataset, ScalingParams]:
    """Affinely map every feature to [0,1]; constant features map to 0.

    Returns the scaled dataset together with the parameters needed to
    apply the identical map to held-out data.
    """
    lo = data.features.min(axis=0)
    hi = data.features.max(axis=0)
    params = ScalingParams(lo, hi)
    return apply_scaling(data, params), params


def apply_scaling(data: Dataset, params: ScalingParams) -> Dataset:
    """Apply stored minmax parameters, clamping the result into [0,1].

    On the data the parameters were fitted from this reproduces the
    minmax_scale output exactly; out-of-range held-out values are clamped
    so downstream unit-cube machinery stays valid.
    """
    if data.n != params.n:
        raise DataError(f"dimension mismatch: data has {data.n} features, scaling has {params.n}")
    span = params.maximum - params.minimum
    scaled = np.zeros_like(data.features)
    active = span > 0
    scaled[:, active] = (data.features[:, active] - params.minimum[active]) / span[active]
    np.clip(scaled, 0.0, 1.0, out=scaled)
    return Dataset(scaled, data.labels, data.feature_names)


def invert_scaling(features: np.ndarray, params: ScalingParams) -> np.ndarray:
    """Map scaled features back to the original units.

    Constant features recover their (single) training value.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != params.n:
        raise DataError("dimension mismatch in invert_scaling")
    span = params.maximum - params.minimum
    return features * span + params.minimum


def kfold_split(data: Dataset, folds: int, seed: int) -> FoldPlan:
    """Shuffle deterministically and deal samples into folds of near-equal size."""
    if folds < 2:
        raise DataError("need at least 2 folds")
    if folds > data.l:
        raise DataError(f"cannot split {data.l} samples into {folds} folds")
    perm = make_rng(seed).permutation(data.l)
    assignments = np.empty(data.l, dtype=np.int64)
    assignments[perm] = np.arange(data.l) % folds
    return FoldPlan(seed=seed, fold_count=folds, fold_assignments=assignments)


def generate_ndc(samples: int, features: int, cluster_count: int, seed: int) -> Dataset:
    """Synthesize normally-distributed-clusters data for benchmarks.

    Blob centers are uniform in [0,10]^n with isotropic unit-variance
    Gaussian points around them; every blob takes the label of its
    center's side of a random hyperplane through the centers' mean. The
    row order is shuffled. Fully deterministic under the seed.
    """
    if cluster_count < 2:
        raise DataError("cluster_count must be at least 2")
    if samples < cluster_count:
        raise DataError("need at least one sample per cluster")
    if features < 1:
        raise DataError("features must be at least 1")
    rng = make_rng(seed)
    centers = rng.uniform(0.0, 10.0, size=(cluster_count, features))
    normal = rng.standard_normal(features)
    normal /= np.linalg.norm(normal)
    center_labels = (centers - centers.mean(axis=0)) @ normal >= 0.0

    counts = np.full(cluster_count, samples // cluster_count, dtype=np.int64)
    counts[: samples % cluster_count] += 1
    feature_rows = np.empty((samples, features), dtype=np.float64)
    labels = np.empty(samples, dtype=np.int64)
    row = 0
    for k in range(cluster_count):
        block = rng.standard_normal((counts[k], features)) + centers[k]
        feature_rows[row : row + counts[k]] = block
        labels[row : row + counts[k]] = int(center_labels[k])
        row += counts[k]
    perm = rng.permutation(samples)
    return Dataset(feature_rows[perm], labels[perm])
