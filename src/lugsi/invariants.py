"""Per-sample v-values, per-granule invariant vectors, and the full V-matrix.

A v-value measures how much of a reference measure dominates a sample
componentwise. Under the uniform measure on the unit cube it has the
closed form prod_j (1 - x_j); under an empirical measure it is the
fraction of reference points that are >= the sample in every coordinate
(with >= meaning the step function equals 1 at 0).

Each granule's v entries form a vector v_k whose outer product v_k v_k^T
is that granule's rank-one invariant matrix. Solvers never materialize
the outer product; they only consume v_k and the invariant target
v_k^T Y_k stored here.
"""

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .errors import DataError, check_array_entries
from .granulation import Granulation

UNIFORM_UNIT_CUBE = "uniform-unit-cube"
EMPIRICAL = "empirical"

# reference rows per domination block: the (block, l, n) comparison is the
# largest temporary of the empirical measure
_REFERENCE_BLOCK = 128


@dataclass(frozen=True)
class MeasureSpec:
    """Choice of measure behind v-values: uniform unit cube or empirical."""

    kind: str
    reference_points: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in (UNIFORM_UNIT_CUBE, EMPIRICAL):
            raise DataError(f"unknown measure kind {self.kind!r}")
        if self.kind == EMPIRICAL:
            if self.reference_points is None:
                raise DataError("empirical measure requires reference points")
            refs = np.asarray(self.reference_points, dtype=np.float64)
            if refs.ndim != 2 or refs.shape[0] < 1:
                raise DataError("empirical measure requires at least one reference point")
            refs = refs.copy()
            refs.flags.writeable = False
            object.__setattr__(self, "reference_points", refs)
        elif self.reference_points is not None:
            raise DataError("uniform measure takes no reference points")

    @classmethod
    def uniform(cls) -> "MeasureSpec":
        return cls(UNIFORM_UNIT_CUBE)

    @classmethod
    def empirical(cls, reference_points) -> "MeasureSpec":
        return cls(EMPIRICAL, np.asarray(reference_points, dtype=np.float64))


@dataclass(frozen=True)
class GranuleInvariant:
    """One granule's v vector and its invariant target v^T Y_k."""

    granule_index: int
    v: np.ndarray
    target: float

    def __post_init__(self):
        v = np.asarray(self.v, dtype=np.float64)
        if v.ndim != 1 or v.size < 1:
            raise DataError("v must be a nonempty vector")
        if np.any(v < 0.0) or np.any(v > 1.0):
            raise DataError("v entries must lie in [0,1]")
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "target", float(self.target))


def _require_unit_cube(points: np.ndarray) -> None:
    if np.any(points < 0.0) or np.any(points > 1.0):
        raise DataError("point outside the unit cube; minmax scale the data first")


def _dominance_blocks(refs: np.ndarray, points: np.ndarray):
    """Per block of reference rows, which of them dominate each point
    componentwise (block x l booleans)."""
    if refs.shape[1] != points.shape[1]:
        raise DataError("reference points dimension mismatch")
    for start in range(0, refs.shape[0], _REFERENCE_BLOCK):
        block = refs[start:start + _REFERENCE_BLOCK]
        yield np.all(block[:, None, :] >= points[None, :, :], axis=2)


def _v_values(points: np.ndarray, measure: MeasureSpec) -> np.ndarray:
    if measure.kind == UNIFORM_UNIT_CUBE:
        _require_unit_cube(points)
        return np.prod(1.0 - points, axis=1)
    # fraction of reference points dominating each sample componentwise
    refs = measure.reference_points
    counts = sum(block.sum(axis=0) for block in _dominance_blocks(refs, points))
    return counts / refs.shape[0]


def v_value(point, measure: MeasureSpec) -> float:
    """v-value of a single point under the given measure."""
    point = np.asarray(point, dtype=np.float64)
    if point.ndim != 1:
        raise DataError("point must be a vector")
    return float(_v_values(point[None, :], measure)[0])


def _granule_invariants(
    data: Dataset, granulation: Granulation, measure: MeasureSpec | None, weight
) -> list[GranuleInvariant]:
    """One GranuleInvariant per granule, v entries ordered by member index.

    `weight` maps a granule's v-values under `measure` (all ones when the
    measure is None) to its v vector; the target is v^T Y_k.
    """
    if granulation.assignments.shape[0] != data.l:
        raise DataError("granulation does not match the dataset")
    values = np.ones(data.l) if measure is None else _v_values(data.features, measure)
    labels = data.labels.astype(np.float64)
    out = []
    for k, members in enumerate(granulation.granule_members):
        v = weight(values[members])
        out.append(GranuleInvariant(k, v, float(v @ labels[members])))
    return out


def _unit_maximum(v: np.ndarray) -> np.ndarray:
    top = v.max()
    return v / top if top > 0.0 else v


def granule_v_vectors(
    data: Dataset, granulation: Granulation, measure: MeasureSpec
) -> list[GranuleInvariant]:
    """One GranuleInvariant per granule, v entries ordered by member index."""
    return _granule_invariants(data, granulation, measure, lambda v: v)


def normalized_granule_invariants(
    data: Dataset, granulation: Granulation, measure: MeasureSpec
) -> list[GranuleInvariant]:
    """Granule invariants with each v vector rescaled to maximum 1.

    Raw v-values shrink like 2^-n with the feature count, which would let
    the regularizer swamp the invariant residuals on wide data for any
    reasonable regularization grid. Rescaling each granule's predicate to
    unit maximum keeps the within-granule structure while making the
    objective's scale dimension-independent. Granules whose v vector is
    identically zero (under the uniform measure: every member has a
    coordinate equal to 1, or the product underflows on wide data) are
    left as-is. So a singleton granule gets weight [1.0] only when its
    v-value is nonzero: on minmax-scaled data every row that attains some
    feature's maximum has uniform v-value 0, and the m = l fit is not the
    identity-weighted (LSSVM) mode, which `unit_granule_invariants` gives.
    """
    return _granule_invariants(data, granulation, measure, _unit_maximum)


def unit_granule_invariants(data: Dataset, granulation: Granulation) -> list[GranuleInvariant]:
    """Unit-predicate invariants: every v entry forced to 1.

    This is the measure-independent switch that turns the granulated
    model into a plain least-squares one when granules are singletons.
    """
    return _granule_invariants(data, granulation, None, lambda v: v)


def v_matrix(data: Dataset, measure: MeasureSpec) -> np.ndarray:
    """Full l x l matrix of pairwise step-function product integrals.

    Uniform kind: entry (i,j) = prod_k (1 - max(x_i^k, x_j^k)). Empirical
    kind: the fraction of reference points dominating both samples. The
    result is symmetric positive semidefinite. This is the quadratic-cost
    object the granulated solvers exist to avoid, so it refuses to
    materialize when l * l is above `errors.MAX_ARRAY_ENTRIES`.
    """
    check_array_entries("V-matrix", data.l, data.l)
    X = data.features
    if measure.kind == UNIFORM_UNIT_CUBE:
        _require_unit_cube(X)
        V = np.ones((data.l, data.l), dtype=np.float64)
        for k in range(data.n):
            V *= 1.0 - np.maximum.outer(X[:, k], X[:, k])
        return V
    refs = measure.reference_points
    # integer counts, exact in float64 whatever the blocking
    V = np.zeros((data.l, data.l), dtype=np.float64)
    for block in _dominance_blocks(refs, X):
        dominates = block.astype(np.float64)
        V += dominates.T @ dominates
    V /= refs.shape[0]
    return (V + V.T) / 2.0
