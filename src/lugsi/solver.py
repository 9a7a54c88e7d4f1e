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
The factored system is solved on numpy alone (`_factor_solve`: Cholesky,
then block substitution), so the package loads a single BLAS.

All four modes solve these normal equations in one core, `_closed_form`,
which takes a `GranulatedSystem` (P as the design, s as the bias column,
t as the targets), a sequence of gamma and an optional weight matrix W
(None for the identity): sum_k v_k v_k^T weighting of the full design is
the identity weighting of P. It forms the gamma-free products once and
factors the shifted systems of all its gammas as stacks in one pass, each
gamma bitwise as if solved alone. `granulated_system` builds the system
apart from gamma through `_design_rows`, the one design builder, and
`fit_path`, the one entry for a built system, solves it at a set of
gammas: a cv grid builds and factors each system once for all its C, and
`fit_linear_lugsi`, `fit_kernel_lugsi` and `fit_lssvm` build a system
from their weights and solve it at one gamma. `fit_lssvm` and `fit_vsvm`
build the system of `singleton_granulation` (one granule per row, in row
order) with unit predicates, so P is the design itself, s = 1 and t = Y.
`fit_lssvm` solves it with m = l, an effective regularizer gamma * l, and
`fit_vsvm`, the dense reference for cross-checks, with W = V and m = 1.
The full V-matrix is never materialized for a granulated fit.

A fit refuses to start when its largest array would hold more than
`errors.MAX_ARRAY_ENTRIES` entries: max(m, Gram block rows) x l for any kernel
fit (`check_kernel_fit_size`; l x l for a kernel LSSVM), l x l for a V-matrix fit.
"""

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import Dataset, ScalingParams
from .errors import DataError, LugsiError, NumericError, check_array_entries
from .granulation import STACK_ENTRIES, Granulation, singleton_granulation
from .invariants import GranuleWeights, unit_granule_invariants
from .kernels import KernelSpec, gram_block
from .serialize import load_document, write_document

ROW_BLOCK = 1024
_PSD_CHECK_LIMIT = 1_500
_SOLVE_BLOCK = 64
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


def _factor_solve(M: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, list[float]]:
    """Cholesky solve with one refinement step; returns (z, condition hints).

    M is one n x n system (`solve_spd`) or a stack of them (..., n, n),
    such as `_closed_form`'s stacks, a stack of one included; rhs is n x c,
    shared by every system, or one n x c per system. One `np.linalg.cholesky`
    factors the stack, and L is applied by block substitution: only its
    diagonal blocks of `_SOLVE_BLOCK` rows are inverted, each block of the
    whole stack in one call, so a solve costs O(n^2) per system. LAPACK and
    BLAS take each system as they would alone, so each member's z is
    bitwise its solve alone, and a stack is as cheap as one system in numpy
    calls. The hints, one per system, are the squared ratio of the extreme
    diagonal entries of L, a cheap lower bound on the 2-norm condition
    number.
    """
    M = np.asarray(M, dtype=np.float64)
    rhs = np.asarray(rhs, dtype=np.float64)
    if not np.all(np.isfinite(M)) or not np.all(np.isfinite(rhs)):
        raise NumericError("non-finite entries in the linear system")
    try:
        L = np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        raise NumericError("Cholesky failed: a leading minor is not positive definite") from None
    n = M.shape[-1]
    shape = M.shape[:-1] + rhs.shape[-1:]
    blocks = [slice(lo, min(lo + _SOLVE_BLOCK, n)) for lo in range(0, n, _SOLVE_BLOCK)]
    inverses = [np.linalg.inv(L[..., rows, rows]) for rows in blocks]

    def solve(r: np.ndarray) -> np.ndarray:
        y, z = np.empty(shape), np.empty(shape)
        for rows, inv in zip(blocks, inverses):  # L y = r, top block first
            known = L[..., rows, :rows.start] @ y[..., :rows.start, :]
            y[..., rows, :] = inv @ (r[..., rows, :] - known)
        for rows, inv in zip(blocks[::-1], inverses[::-1]):  # L^T z = y, bottom block first
            known = L[..., rows.stop:, rows].swapaxes(-1, -2) @ z[..., rows.stop:, :]
            z[..., rows, :] = inv.swapaxes(-1, -2) @ (y[..., rows, :] - known)
        return z

    z = solve(rhs)
    z += solve(rhs - M @ z)
    # per system, as a scalar expression: the array form can differ in the last bit
    diagonals = L.diagonal(0, -2, -1).reshape(-1, n)
    return z, [float((diag.max() / diag.min()) ** 2) for diag in diagonals]


def solve_spd(M: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve M z = rhs for a symmetric positive definite M.

    One Cholesky factorization is shared across all right-hand sides
    (rhs may be a vector or a column-stacked matrix), followed by a
    single iterative-refinement step to push the residual down to
    machine level.
    """
    rhs = np.asarray(rhs, dtype=np.float64)
    if rhs.ndim == 1:
        return _factor_solve(M, rhs[:, None])[0][:, 0]
    return _factor_solve(M, rhs)[0]


def _closed_form(
    system, gammas, m, scaling, W=None
) -> list[tuple[LinearModel | KernelModel, FitDiagnostics]]:
    """The one solve, bias recovery, model and diagnostics of every fit mode,
    at each gamma of `gammas`; a single fit is the one-gamma case.

    Takes a `GranulatedSystem` and reads its P as the design D, its s as the
    bias column `one` and its t as the targets y. Minimizes
    r^T W r + gamma*m*||p||^2 over p and the bias b, where
    r = D p + b*one - y and W = None stands for the identity. The two
    half-solutions [p_b, p_c] solve M [p_b, p_c] = [D^T W y, D^T W one]
    with M = D^T W D + gamma*m*I. With W = None and fewer rows than columns
    in D, the smaller system D D^T + gamma*m*I is factored instead and
    [p_b, p_c] = D^T z. The gamma-free products (the Gram, the right-hand
    sides and the bias sums) are formed once; the shifted systems go to
    `_factor_solve` in stacks of at most `STACK_ENTRIES` entries, the bound
    of a k-means stack (all 17 of a default grid's C while n <= 62; one at
    a time from n = 256, where the factorization's flops dominate). Per
    gamma, the bias comes from its stationarity equation, and a near-zero
    bias denominator falls back to b = 0 with the diagnostics flag set.
    Then p = p_b - b*p_c. Each gamma's model and diagnostics are bitwise
    those of solving at that gamma alone. Returns one (model, diagnostics)
    per gamma, in order.
    """
    D, one, y = system.P, system.s, system.t
    data, kernel, seed = system.data, system.kernel, system.granulation.seed
    gammas = list(gammas)
    shifts = [gamma * m for gamma in gammas]
    for gamma_eff in shifts:
        if not gamma_eff > 0.0:
            raise DataError("gamma must be positive")
        if not gamma_eff < math.inf:
            raise DataError(
                f"gamma*m overflows: the regularization shift {gamma_eff!r} is not finite"
            )
    if W is None:
        DWy, DW1, oWy, oW1, oWD = D.T @ y, D.T @ one, one @ y, one @ one, one @ D
    else:
        oW = one @ W
        DWy, DW1, oWy, oW1, oWD = D.T @ (W @ y), D.T @ (W @ one), oW @ y, oW @ one, oW @ D
    dual = W is None and D.shape[0] < D.shape[1]
    if dual:
        gram, rhs = D @ D.T, np.column_stack([y, one])
    else:
        gram = D.T @ D if W is None else D.T @ (W @ D)
        rhs = np.column_stack([DWy, DW1])
    n = gram.shape[0]
    per_stack = max(1, STACK_ENTRIES // (n * n))
    if scaling is None:
        scaling = ScalingParams(np.zeros(data.n), np.ones(data.n))
    cls, fields = _KINDS["linear" if kernel is None else "kernel"]
    spec = {} if kernel is None else {"kernel": kernel}
    fits = []
    for lo in range(0, len(shifts), per_stack):
        stack = shifts[lo:lo + per_stack]
        # the very last system shifts the Gram in place: a one-gamma fit makes no copy
        M = gram[None] if len(shifts) - lo == 1 else np.repeat(gram[None], len(stack), axis=0)
        M.reshape(len(stack), n * n)[:, ::n + 1] += np.array(stack)[:, None]  # the diagonals
        z, hints = _factor_solve(M, rhs)
        for gamma, gamma_eff, M_k, z_k, cond in zip(gammas[lo:], stack, M, z, hints):
            half = D.T @ z_k if dual else z_k
            p_b, p_c = half[:, 0], half[:, 1]
            numerator = float(oWy - oWD @ p_b)
            denominator = float(oW1 - oWD @ p_c)
            fallback = abs(denominator) < _B_DEGENERACY_TOL * (1.0 + abs(numerator))
            bias = 0.0 if fallback else numerator / denominator
            params = p_b - bias * p_c
            # half the gradient of the objective in (p, b), from the normal equations
            system_product = D.T @ (D @ params) + gamma_eff * params if dual else M_k @ params
            grad = np.append(system_product + bias * DW1 - DWy, oWD @ params + bias * oW1 - oWy)
            resid = D @ params + bias * one - y
            residual_energy = resid @ resid if W is None else resid @ (W @ resid)
            coefficients = dict(zip(fields, (params, bias, p_b, p_c, data.features)))
            model = cls(**coefficients, **spec, gamma=gamma, m=m, seed=seed, scaling=scaling)
            diagnostics = FitDiagnostics(
                objective_value=float(residual_energy + gamma_eff * (params @ params)),
                gradient_norm=2.0 * float(np.linalg.norm(grad)),
                system_condition_hint=cond,
                bias_fallback=fallback,
            )
            fits.append((model, diagnostics))
    return fits


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


def check_kernel_fit_size(m: int, l: int) -> None:
    """Refuse a granulated kernel fit of m granules on l training rows whose
    P or Gram block would hold more than `errors.MAX_ARRAY_ENTRIES` entries.

    P and a Gram block are its largest arrays; the min(m, l) square system
    is no larger. The cv grid and `train` call it before any k-means.
    """
    largest = max(m, *(rows.stop - rows.start for rows in _row_blocks(l)))
    check_array_entries("kernel P or Gram block", largest, l)


def _design_rows(data, granulation, weights, kernel) -> np.ndarray:
    """P, whose row k is design_k^T v_k, from one walk over the rows in granule order.

    Granule k is order[starts[k]:ends[k]]; `weights`, the joined v vectors,
    line up with `order`. A linear fit takes the feature rows in granule order
    as one block, a kernel fit Gram blocks of `_row_blocks` rows against all
    training rows (no l x l Gram). Each block adds v times the design row of
    its singleton granules in one array step, then v_seg^T design_seg for the
    segment of each larger granule it covers.
    """
    m, X, linear = granulation.m, data.features, kernel is None
    blocks = [slice(0, data.l)] if linear else _row_blocks(data.l)
    if not linear:
        check_kernel_fit_size(m, data.l)
    order, ends = granulation.order, granulation.ends
    starts = np.concatenate(([0], ends[:-1]))
    sizes = ends - starts
    single, larger = (sizes == 1).nonzero()[0], (sizes > 1).nonzero()[0]
    first, last, larger = starts[larger].tolist(), ends[larger].tolist(), larger.tolist()
    P = np.zeros((m, data.n if linear else data.l), dtype=np.float64)
    for rows in blocks:
        block = X[order[rows]] if linear else gram_block(kernel, X[order[rows]], X)
        if single.size:  # none at small m: skip the step and its fixed cost
            ks = single[slice(*starts[single].searchsorted([rows.start, rows.stop]))]
            P[ks] += weights[starts[ks], None] * block[starts[ks] - rows.start]
        # the larger granules that end after the block starts and start before it ends
        lo, hi = bisect_right(last, rows.start), bisect_left(first, rows.stop)
        for k, a, b in zip(larger[lo:hi], first[lo:hi], last[lo:hi]):
            a, b = max(a, rows.start), min(b, rows.stop)
            P[k] += weights[a:b] @ block[a - rows.start:b - rows.start]
        del block  # free it before the next block is built
    return P


@dataclass(frozen=True)
class GranulatedSystem:
    """A granulated fit before its regularizer: the read-only P, whose row k is
    design_k^T v_k, and the weights' sums s and targets t, with the training
    rows, granulation and kernel (None for linear) they were built from.

    `granulated_system` builds it once, and `fit_path` solves it at any
    set of gammas in one stacked solve, so a cv grid builds and factors
    each (fold, m, delta) system once for all of its C values.
    """

    data: Dataset
    granulation: Granulation
    kernel: KernelSpec | None
    P: np.ndarray
    s: np.ndarray
    t: np.ndarray


def granulated_system(
    data: Dataset, granulation: Granulation, weights: GranuleWeights, kernel: KernelSpec | None
) -> GranulatedSystem:
    """P from the joined `weights.v` (`_design_rows`), with the weights' s and
    t, whose `ends` must be the granulation's."""
    if granulation.assignments.shape[0] != data.l:
        raise DataError("granulation does not match the dataset")
    if not np.array_equal(weights.ends, granulation.ends):
        raise DataError("need one GranuleInvariant per granule, as long as the granule")
    P = _design_rows(data, granulation, weights.v, kernel)
    P.flags.writeable = False
    return GranulatedSystem(data, granulation, kernel, P, weights.s, weights.t)


def fit_path(
    system: GranulatedSystem, gammas, scaling: ScalingParams | None
) -> list[tuple[LinearModel | KernelModel, FitDiagnostics]]:
    """The regularization path of a built system: one (model, FitDiagnostics)
    per gamma of `gammas`, in order, factored in stacks (`_closed_form`).

    Each gamma's fit is bitwise the system's fit at that gamma alone, which
    is what `fit_linear_lugsi` and `fit_kernel_lugsi` return for its
    weights; the cv grid solves each (fold, m, delta) system at all of its
    C values in one call.
    """
    return _closed_form(system, gammas, system.granulation.m, scaling)


def fit_linear_lugsi(
    data: Dataset,
    granulation: Granulation,
    invariants: GranuleWeights,
    gamma: float,
    scaling: ScalingParams | None = None,
) -> tuple[LinearModel, FitDiagnostics]:
    """Closed-form linear fit from `GranuleWeights`: one rank-one invariant per granule.

    Solves (sum_k u_k u_k^T + gamma*m*I) applied to the two right-hand
    sides sum_k t_k u_k and sum_k s_k u_k, then recovers the bias from
    the accumulated bias stationarity equation. A near-zero bias
    denominator falls back to b = 0 with the diagnostics flag set. It is
    the one-gamma `fit_path` of the `granulated_system` of these weights.
    """
    return fit_path(granulated_system(data, granulation, invariants, None), [gamma], scaling)[0]


def fit_kernel_lugsi(
    data: Dataset,
    granulation: Granulation,
    invariants: GranuleWeights,
    kernel: KernelSpec,
    gamma: float,
    scaling: ScalingParams | None = None,
) -> tuple[KernelModel, FitDiagnostics]:
    """Kernel-space analogue of the linear fit, from the same `GranuleWeights`.

    The compressed vectors q_k = K_k^T v_k against the full training set
    are accumulated from Gram blocks of about `ROW_BLOCK` rows, and with
    m < l the solve is m x m, so the fit takes O(m * l) memory and never
    builds the l x l Gram. With m >= l the system is l x l. The budget
    `errors.MAX_ARRAY_ENTRIES` bounds max(m, Gram block rows) * l, so
    with few granules l may go well past the l of an l x l budget. Like the
    linear fit, it is the one-gamma `fit_path` of the built system.
    """
    return fit_path(granulated_system(data, granulation, invariants, kernel), [gamma], scaling)[0]


def fit_lssvm(
    data: Dataset,
    gamma: float,
    kernel: KernelSpec | None = None,
    scaling: ScalingParams | None = None,
    seed: int = 0,
) -> tuple[LinearModel | KernelModel, FitDiagnostics]:
    """Identity-weighted least-squares fit (unit predicates, singleton granules).

    Minimizes ||D p + b - Y||^2 + gamma * l * ||p||^2: the granulated fit
    of `singleton_granulation` (m = l) with `unit_granule_invariants`, so P
    is the design D itself (the features, or the training Gram rows for a
    kernel spec, built in Gram blocks), s = 1 and t = Y.
    """
    granulation = singleton_granulation(data, seed)
    weights = unit_granule_invariants(data, granulation)
    return fit_path(granulated_system(data, granulation, weights, kernel), [gamma], scaling)[0]


def fit_vsvm(
    data: Dataset,
    V: np.ndarray,
    gamma: float,
    kernel: KernelSpec | None = None,
    scaling: ScalingParams | None = None,
    seed: int = 0,
) -> tuple[LinearModel | KernelModel, FitDiagnostics]:
    """Dense reference fit weighting residuals by a full V-matrix.

    Minimizes (D p + b - Y)^T V (D p + b - Y) + gamma * ||p||^2 with no
    rank-one shortcut: the singleton system of `fit_lssvm` solved with W = V
    and m = 1. V must be a symmetric positive semidefinite l x l matrix.
    Kept for equivalence cross-checks and small problems.
    """
    check_array_entries("V-matrix fit system", data.l, data.l)
    V = np.asarray(V, dtype=np.float64)
    if V.shape != (data.l, data.l):
        raise DataError("V must be an l x l matrix")
    scale = 1.0 + float(np.max(np.abs(V)))
    if float(np.max(np.abs(V - V.T))) > 1e-12 * scale:
        raise DataError("V must be symmetric")
    if data.l <= _PSD_CHECK_LIMIT:
        smallest = float(np.linalg.eigvalsh(V)[0])
        if smallest < -1e-8:
            raise DataError(f"V is not positive semidefinite (eigenvalue {smallest:.3e})")

    granulation = singleton_granulation(data, seed)
    weights = unit_granule_invariants(data, granulation)
    system = granulated_system(data, granulation, weights, kernel)
    return _closed_form(system, [gamma], 1, scaling, V)[0]


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
    write_document(path, model_document(model))


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
