"""Closed-form fitting of granulated invariant models.

Every fit mode minimizes r^T W r + gamma * m * ||params||^2 over the
parameters and the bias, where r = D params + bias - Y, D is the design
(the features, or the training Gram block for a kernel) and W weights the
residuals. The granulated fits take W = sum_k v_k v_k^T, one rank-one
invariant per granule, so the regularizer totals gamma * m and the
normal equations only need the compressed quantities

    u_k = X_k^T v_k   (linear)   or   q_k = K_k^T v_k   (kernel),
    s_k = v_k^T 1,    t_k = v_k^T Y_k.

Stacking the u_k (or q_k) as the rows of P (m x d), the system matrix is
P^T P + gamma*m*I. When P has fewer rows than columns the solve runs in
the m x m system P P^T + gamma*m*I instead, through the push-through
identity (P^T P + gI)^-1 P^T = P^T (P P^T + gI)^-1, so a kernel fit costs
O(m*l) memory: its P is accumulated from Gram blocks of about
`ROW_BLOCK` training rows, and kernel scoring is blocked the same way.

The full V-matrix is never materialized here; `fit_vsvm` keeps the dense
reference construction (W = V, m = 1) for cross-checks, and `fit_lssvm`
is the identity-weighted degenerate mode (singleton granules, unit
predicates, so its effective regularizer is gamma * l). Both build the
whole design. All four modes share one closed-form bias recovery, model
and diagnostics path.

A fit refuses to start when its largest array would hold more than
`errors.MAX_ARRAY_ENTRIES` entries: max(m, Gram block rows) x l for a granulated
kernel fit, l x l for a kernel LSSVM or a V-matrix fit.
"""

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.linalg

from .dataset import Dataset, ScalingParams
from .errors import DataError, LugsiError, NumericError, check_array_entries
from .granulation import Granulation
from .invariants import GranuleInvariant
from .kernels import KernelSpec, gram_block
from .serialize import dump_document, load_document

ROW_BLOCK = 1024
_PSD_CHECK_LIMIT = 1_500
_B_DEGENERACY_TOL = 1e-12


@dataclass(frozen=True)
class FitDiagnostics:
    """Health metrics recorded with every fit.

    `gradient_norm` is the exact norm of the objective's gradient in
    (params, bias) at the returned solution, evaluated from the normal
    equations. `system_condition_hint` is the hint of the factored
    system, of dimension min(m, d) for a rank-one fit with m x d P.
    """

    objective_value: float
    gradient_norm: float
    system_condition_hint: float
    bias_fallback: bool = False


def _check_coefficients(model, full: str, bias: str, b_half: str, c_half: str) -> None:
    """Copy, check finite and freeze a model's three coefficient vectors,
    then check full = b_half - bias * c_half."""
    for name in (full, b_half, c_half):
        arr = np.asarray(getattr(model, name), dtype=np.float64).copy()
        if not np.all(np.isfinite(arr)):
            raise NumericError(f"non-finite entries in {name}")
        arr.flags.writeable = False
        object.__setattr__(model, name, arr)
    if not math.isfinite(getattr(model, bias)):
        raise NumericError("non-finite bias")
    params, p_b, p_c = getattr(model, full), getattr(model, b_half), getattr(model, c_half)
    if params.ndim != 1 or not params.shape == p_b.shape == p_c.shape:
        raise DataError(f"{full}, {b_half} and {c_half} must be vectors of one length")
    recon = p_b - getattr(model, bias) * p_c
    scale = 1.0 + float(np.max(np.abs(recon)))
    if float(np.max(np.abs(params - recon))) > 1e-12 * scale:
        raise NumericError(f"{full} does not match {b_half} - {bias}*{c_half}")


@dataclass(frozen=True)
class LinearModel:
    """f(x) = w^T x + b, with the two half-solutions it was built from."""

    w: np.ndarray
    b: float
    w_b: np.ndarray
    w_c: np.ndarray
    gamma: float
    m: int
    seed: int
    scaling: ScalingParams

    def __post_init__(self):
        _check_coefficients(self, "w", "b", "w_b", "w_c")


@dataclass(frozen=True)
class KernelModel:
    """f(x) = A^T K(training_points, x) + c."""

    A: np.ndarray
    c: float
    A_b: np.ndarray
    A_c: np.ndarray
    training_points: np.ndarray
    kernel: KernelSpec
    gamma: float
    m: int
    seed: int
    scaling: ScalingParams

    def __post_init__(self):
        _check_coefficients(self, "A", "c", "A_b", "A_c")
        points = np.asarray(self.training_points, dtype=np.float64).copy()
        points.flags.writeable = False
        object.__setattr__(self, "training_points", points)
        if points.ndim != 2 or self.A.shape[0] != points.shape[0]:
            raise DataError("coefficient length does not match stored training rows")


# model_kind -> (class, coefficient fields in document order): the
# parameters, the bias, the two half-solutions, then any stored rows
_KINDS = {
    "linear": (LinearModel, ("w", "b", "w_b", "w_c")),
    "kernel": (KernelModel, ("A", "c", "A_b", "A_c", "training_points")),
}


def _factor_solve(M: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, float]:
    """Cholesky solve with one refinement step; returns (z, condition hint).

    The hint is the squared ratio of the extreme Cholesky diagonal
    entries, a cheap lower bound on the 2-norm condition number.
    """
    M = np.asarray(M, dtype=np.float64)
    rhs = np.asarray(rhs, dtype=np.float64)
    if not np.all(np.isfinite(M)) or not np.all(np.isfinite(rhs)):
        raise NumericError("non-finite entries in the linear system")
    try:
        factor = scipy.linalg.cho_factor(M, lower=True, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise NumericError(f"Cholesky factorization failed: {exc}") from None
    z = scipy.linalg.cho_solve(factor, rhs, check_finite=False)
    z += scipy.linalg.cho_solve(factor, rhs - M @ z, check_finite=False)
    diag = np.diag(factor[0])
    return z, float((diag.max() / diag.min()) ** 2)


def solve_spd(M: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve M z = rhs for a symmetric positive definite M.

    One Cholesky factorization is shared across all right-hand sides
    (rhs may be a vector or a column-stacked matrix), followed by a
    single iterative-refinement step to push the residual down to
    machine level.
    """
    return _factor_solve(M, rhs)[0]


def _design(data: Dataset, kernel: KernelSpec | None) -> np.ndarray:
    """The feature matrix, or the l x l training Gram block within the budget."""
    if kernel is None:
        return data.features
    check_array_entries("training Gram", data.l, data.l)
    return gram_block(kernel, data.features, data.features)


def _shifted_solve(M: np.ndarray, shift: float, rhs: np.ndarray) -> tuple[np.ndarray, float]:
    """`_factor_solve` of M + shift*I; the shift is added to M in place."""
    if not shift > 0.0:
        raise DataError("gamma must be positive")
    if not shift < math.inf:
        raise DataError(f"gamma*m overflows: the regularization shift {shift!r} is not finite")
    M[np.diag_indices(M.shape[0])] += shift
    return _factor_solve(M, rhs)


def _closed_form(
    data, kernel, gamma, m, seed, scaling,
    half, cond, system_product, DWy, DW1, oWy, oW1, oWD, residual_energy,
) -> tuple[LinearModel | KernelModel, FitDiagnostics]:
    """The bias, model and diagnostics shared by every fit mode.

    Minimizes r^T W r + gamma*m*||p||^2 with r = D p + bias - y. `half`
    holds the two half-solutions [p_b, p_c] of M [p_b, p_c] = [D^T W y,
    D^T W 1] with M = D^T W D + gamma*m*I, `cond` the condition hint of the
    factored system and `system_product(p)` the product M p. The other
    inputs are D^T W y, D^T W 1, 1^T W y, 1^T W 1 and 1^T W D. The bias
    comes from its stationarity equation, and a near-zero bias denominator
    falls back to b = 0 with the diagnostics flag set. Then p = p_b - b*p_c.
    `residual_energy(p, b)` returns r^T W r for the objective.
    """
    gamma_eff = gamma * m
    p_b, p_c = half[:, 0], half[:, 1]
    numerator = float(oWy - oWD @ p_b)
    denominator = float(oW1 - oWD @ p_c)
    fallback = abs(denominator) < _B_DEGENERACY_TOL * (1.0 + abs(numerator))
    bias = 0.0 if fallback else numerator / denominator
    params = p_b - bias * p_c
    # half the gradient of the objective in (p, b), from the normal equations
    grad = np.append(
        system_product(params) + bias * DW1 - DWy, oWD @ params + bias * oW1 - oWy
    )
    if scaling is None:
        scaling = ScalingParams(np.zeros(data.n), np.ones(data.n))
    cls, fields = _KINDS["linear" if kernel is None else "kernel"]
    coefficients = dict(zip(fields, (params, bias, p_b, p_c, data.features)))
    spec = {} if kernel is None else {"kernel": kernel}
    model = cls(**coefficients, **spec, gamma=gamma, m=m, seed=seed, scaling=scaling)
    diagnostics = FitDiagnostics(
        objective_value=float(residual_energy(params, bias) + gamma_eff * (params @ params)),
        gradient_norm=2.0 * float(np.linalg.norm(grad)),
        system_condition_hint=cond,
        bias_fallback=fallback,
    )
    return model, diagnostics


def _rank_one_fit(data, kernel, P, s, t, gamma, m, seed, scaling):
    """`_closed_form` for W = sum_k v_k v_k^T, from the accumulations (P, s, t).

    Factors the smaller of P P^T + gamma*m*I (m x m, when P has fewer rows
    than columns; then [p_b, p_c] = P^T z) and P^T P + gamma*m*I.
    """
    gamma_eff = gamma * m
    DWy, DW1 = P.T @ t, P.T @ s
    if P.shape[0] < P.shape[1]:
        z, cond = _shifted_solve(P @ P.T, gamma_eff, np.column_stack([t, s]))
        half = P.T @ z

        def system_product(p):
            return P.T @ (P @ p) + gamma_eff * p
    else:
        M = P.T @ P
        half, cond = _shifted_solve(M, gamma_eff, np.column_stack([DWy, DW1]))
        system_product = M.__matmul__

    def residual_energy(p, bias):
        resid = P @ p + bias * s - t
        return resid @ resid

    return _closed_form(
        data, kernel, gamma, m, seed, scaling,
        half, cond, system_product, DWy, DW1, s @ t, s @ s, s @ P, residual_energy,
    )


def _row_blocks(rows: int) -> list[slice]:
    """Slices of ROW_BLOCK rows covering range(rows); a remainder shorter
    than ROW_BLOCK // 2 joins the block before it.

    BLAS takes a short product through other kernels (a dot for one row, a
    small-matrix gemm) whose last bits differ, so a one-row tail would not
    score like the same row in a one-piece product.
    """
    bounds = list(range(0, rows, ROW_BLOCK))
    if len(bounds) > 1 and rows - bounds[-1] < ROW_BLOCK // 2:
        bounds.pop()
    bounds.append(rows)
    return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def _kernel_rows(data, granulation, invariants, kernel) -> np.ndarray:
    """P with rows q_k = K_k^T v_k, from Gram blocks of `_row_blocks` rows.

    Walks the training rows in granule order, so each block adds the
    segments of the granules it covers and no l x l Gram is built.
    """
    order = np.concatenate(granulation.granule_members)
    weights = np.concatenate([inv.v for inv in invariants])
    ends = np.cumsum([members.size for members in granulation.granule_members])
    X = data.features
    P = np.zeros((granulation.m, data.l), dtype=np.float64)
    for rows in _row_blocks(order.size):
        block = gram_block(kernel, X[order[rows]], X)
        lo = rows.start
        while lo < rows.stop:
            k = int(np.searchsorted(ends, lo, side="right"))
            hi = min(int(ends[k]), rows.stop)
            P[k] += weights[lo:hi] @ block[lo - rows.start:hi - rows.start]
            lo = hi
        del block  # free it before the next block is built
    return P


def _granulated_fit(
    data: Dataset,
    granulation: Granulation,
    invariants: list[GranuleInvariant],
    kernel: KernelSpec | None,
    gamma: float,
    scaling: ScalingParams | None,
):
    """Rank-one fit with one invariant per granule, in granule-index order.

    Accumulates row k of P as design_k^T v_k, s_k = sum(v_k) and
    t_k = v_k^T Y_k.
    """
    if granulation.assignments.shape[0] != data.l:
        raise DataError("granulation does not match the dataset")
    if len(invariants) != granulation.m:
        raise DataError("one GranuleInvariant per granule required")
    for k, inv in enumerate(invariants):
        if inv.granule_index != k:
            raise DataError(f"invariant {k} carries granule_index {inv.granule_index}")
        if inv.v.shape[0] != granulation.granule_members[k].size:
            raise DataError(f"invariant {k} length does not match its granule")
    m = granulation.m
    s = np.array([inv.v.sum() for inv in invariants], dtype=np.float64)
    t = np.array([inv.target for inv in invariants], dtype=np.float64)
    if kernel is None:
        P = np.empty((m, data.n), dtype=np.float64)
        for k, members in enumerate(granulation.granule_members):
            P[k] = invariants[k].v @ data.features[members]
    else:
        # P and a Gram block are the largest arrays; the min(m, l) square system is no larger
        block = max(rows.stop - rows.start for rows in _row_blocks(data.l))
        check_array_entries("kernel P or Gram block", max(m, block), data.l)
        P = _kernel_rows(data, granulation, invariants, kernel)
    return _rank_one_fit(data, kernel, P, s, t, gamma, m, granulation.seed, scaling)


def fit_linear_lugsi(
    data: Dataset,
    granulation: Granulation,
    invariants: list[GranuleInvariant],
    gamma: float,
    scaling: ScalingParams | None = None,
) -> tuple[LinearModel, FitDiagnostics]:
    """Closed-form linear fit from per-granule rank-one invariants.

    Solves (sum_k u_k u_k^T + gamma*m*I) applied to the two right-hand
    sides sum_k t_k u_k and sum_k s_k u_k, then recovers the bias from
    the accumulated bias stationarity equation. A near-zero bias
    denominator falls back to b = 0 with the diagnostics flag set.
    """
    return _granulated_fit(data, granulation, invariants, None, gamma, scaling)


def fit_kernel_lugsi(
    data: Dataset,
    granulation: Granulation,
    invariants: list[GranuleInvariant],
    kernel: KernelSpec,
    gamma: float,
    scaling: ScalingParams | None = None,
) -> tuple[KernelModel, FitDiagnostics]:
    """Kernel-space analogue of the linear fit.

    The compressed vectors q_k = K_k^T v_k against the full training set
    are accumulated from Gram blocks of about `ROW_BLOCK` rows, and with
    m < l the solve is m x m, so the fit takes O(m * l) memory and never
    builds the l x l Gram. With m >= l the system is l x l. The budget
    `errors.MAX_ARRAY_ENTRIES` bounds max(m, Gram block rows) * l, so
    with few granules l may go well past the l of an l x l budget.
    """
    return _granulated_fit(data, granulation, invariants, kernel, gamma, scaling)


def fit_lssvm(
    data: Dataset,
    gamma: float,
    kernel: KernelSpec | None = None,
    scaling: ScalingParams | None = None,
    seed: int = 0,
) -> tuple[LinearModel | KernelModel, FitDiagnostics]:
    """Identity-weighted least-squares fit (unit predicates, singleton granules).

    Equivalent by construction to the granulated fit with m = l and every
    v entry forced to 1, so the effective regularizer is gamma * l; it is
    computed directly from the design matrix for speed. A kernel spec
    switches to the kernel parameterization.
    """
    design = _design(data, kernel)
    # singleton granules with unit predicates: P rows are the design rows
    return _rank_one_fit(
        data, kernel, design, np.ones(data.l), data.labels.astype(np.float64),
        gamma, data.l, seed, scaling,
    )


def fit_vsvm(
    data: Dataset,
    V: np.ndarray,
    gamma: float,
    kernel: KernelSpec | None = None,
    scaling: ScalingParams | None = None,
    seed: int = 0,
) -> tuple[LinearModel | KernelModel, FitDiagnostics]:
    """Dense reference fit weighting residuals by a full V-matrix.

    Minimizes (F - Y)^T V (F - Y) + gamma * ||params||^2 with no rank-one
    shortcut (m = 1); kept for equivalence cross-checks and small problems.
    """
    check_array_entries("V-matrix fit system", data.l, data.l)
    V = np.asarray(V, dtype=np.float64)
    if V.shape != (data.l, data.l):
        raise DataError("V must be an l x l matrix")
    scale = 1.0 + float(np.max(np.abs(V)))
    if float(np.max(np.abs(V - V.T))) > 1e-12 * scale:
        raise DataError("V must be symmetric")
    if data.l <= _PSD_CHECK_LIMIT:
        smallest = float(scipy.linalg.eigvalsh(V, subset_by_index=(0, 0))[0])
        if smallest < -1e-8:
            raise DataError(f"V is not positive semidefinite (eigenvalue {smallest:.3e})")

    design = _design(data, kernel)
    labels = data.labels.astype(np.float64)
    ones = np.ones(data.l)
    oV = ones @ V
    M = design.T @ (V @ design)
    DWy, DW1 = design.T @ (V @ labels), design.T @ (V @ ones)
    half, cond = _shifted_solve(M, gamma, np.column_stack([DWy, DW1]))

    def residual_energy(p, bias):
        resid = design @ p + bias - labels
        return resid @ (V @ resid)

    return _closed_form(
        data, kernel, gamma, 1, seed, scaling, half, cond, M.__matmul__,
        DWy, DW1, oV @ labels, oV @ ones, oV @ design, residual_energy,
    )


def decision_values(model: LinearModel | KernelModel, points: np.ndarray) -> np.ndarray:
    """f(x) for a batch of already-scaled points."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise DataError("points must be a 2-d matrix")
    linear = isinstance(model, LinearModel)
    expected = model.w.shape[0] if linear else model.training_points.shape[1]
    if points.shape[1] != expected:
        raise DataError(
            f"dimension mismatch: points have {points.shape[1]} features, "
            f"model expects {expected}"
        )
    if linear:
        return points @ model.w + model.b
    values = np.empty(points.shape[0], dtype=np.float64)
    for rows in _row_blocks(points.shape[0]):
        # one expression, so no block outlives its row slice
        values[rows] = (
            gram_block(model.kernel, points[rows], model.training_points) @ model.A + model.c
        )
    return values


def decision_value(model: LinearModel | KernelModel, point) -> float:
    """f(x) for one already-scaled point."""
    point = np.asarray(point, dtype=np.float64)
    if point.ndim != 1:
        raise DataError("point must be a vector")
    return float(decision_values(model, point[None, :])[0])


def predict_labels(model: LinearModel | KernelModel, points: np.ndarray) -> np.ndarray:
    """Label 1 iff f(x) >= 0.5 (the step function is 1 at 0)."""
    return (decision_values(model, points) >= 0.5).astype(np.int64)


def predict_label(model: LinearModel | KernelModel, point) -> int:
    return int(decision_value(model, point) >= 0.5)


_FORMAT_VERSION = 1


def model_document(model: LinearModel | KernelModel) -> dict:
    """Serializable description of a fitted model (versioned)."""
    kind = "linear" if isinstance(model, LinearModel) else "kernel"
    spec = getattr(model, "kernel", None)
    doc: dict = {
        "format_version": _FORMAT_VERSION,
        "model_kind": kind,
        "kernel": None if spec is None else {
            "kind": spec.kind, "delta": spec.delta, "cro_gamma": spec.cro_gamma,
        },
        "gamma": model.gamma,
        "m": model.m,
        "seed": model.seed,
        "scaling": {"minimum": model.scaling.minimum, "maximum": model.scaling.maximum},
    }
    doc.update((name, getattr(model, name)) for name in _KINDS[kind][1])
    return doc


def save_model(model: LinearModel | KernelModel, path) -> None:
    Path(path).write_text(dump_document(model_document(model)), encoding="utf-8")


def load_model(path) -> LinearModel | KernelModel:
    """Rebuild a model from its serialized document (bitwise round-trip).

    An unreadable file, text that is not a model document, or a missing or
    mistyped field raises DataError; coefficients that fail the model's
    own checks raise NumericError.
    """
    try:
        doc = load_document(Path(path).read_text(encoding="utf-8"))
        if doc.get("format_version") != _FORMAT_VERSION:
            raise DataError(f"unsupported model format version {doc.get('format_version')!r}")
        if doc["model_kind"] not in _KINDS:
            raise DataError(f"unknown model kind {doc['model_kind']!r}")
        cls, fields = _KINDS[doc["model_kind"]]
        coefficients = {name: np.asarray(doc[name], dtype=np.float64) for name in fields}
        coefficients[fields[1]] = float(doc[fields[1]])
        if cls is KernelModel:
            spec = doc["kernel"]
            coefficients["kernel"] = KernelSpec(
                kind=spec["kind"], delta=float(spec["delta"]), cro_gamma=float(spec["cro_gamma"])
            )
        scaling = doc["scaling"]
        return cls(
            **coefficients,
            gamma=float(doc["gamma"]),
            m=int(doc["m"]),
            seed=int(doc["seed"]),
            scaling=ScalingParams(
                np.asarray(scaling["minimum"], dtype=np.float64),
                np.asarray(scaling["maximum"], dtype=np.float64),
            ),
        )
    except LugsiError:
        raise
    except (OSError, ValueError, LookupError, TypeError, AttributeError) as exc:
        raise DataError(f"cannot load model {path}: {type(exc).__name__}: {exc}") from None
