"""Kernel evaluation and Gram blocks.

Three kernels: linear (dot product), rbf exp(-||x-x'||^2 / (2 delta^2)),
and the cosine-similarity CRO kernel

    Phi^2(g) + integral_0^u exp(-g^2/(1+rho)) / (2 pi sqrt(1-rho^2)) drho,

with u the cosine similarity and Phi the standard normal CDF. The CRO
integrand is singular at rho = 1; substituting rho = sin t turns it into
the smooth integral of exp(-g^2/(1+sin t)) / (2 pi) over [0, asin(u)],
which fixed-order Gauss-Legendre quadrature handles deterministically.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DataError

LINEAR = "linear"
RBF = "rbf"
CRO = "cro"

CRO_QUADRATURE_NODES = 64
CRO_CHUNK_ENTRIES = 1 << 18


@dataclass(frozen=True)
class KernelSpec:
    """Kernel choice plus its parameters (delta for rbf, gamma constant for cro)."""

    kind: str
    delta: float = 1.0
    cro_gamma: float = 0.0

    def __post_init__(self):
        if self.kind not in (LINEAR, RBF, CRO):
            raise DataError(f"unknown kernel kind {self.kind!r}")
        if self.kind == RBF:
            # the Gram divides by 2 delta^2, which must neither underflow nor overflow
            width = 2.0 * float(self.delta) * float(self.delta)
            if not (self.delta > 0.0 and 0.0 < width < math.inf):
                raise DataError("rbf kernel requires delta > 0 with 2*delta^2 finite and nonzero")
        if self.kind == CRO and not math.isfinite(self.cro_gamma):
            raise DataError("cro kernel requires a finite gamma constant")


@lru_cache(maxsize=8)
def _leggauss(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(nodes)


def _normal_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def _cro_from_cosine(u: np.ndarray, gamma: float, nodes: int) -> np.ndarray:
    """CRO kernel values from cosine similarities (vectorized).

    u is clamped to [-1, 1] to guard against floating-point overshoot of
    the cosine; the signed integral is evaluated as written for u < 0.
    The entries are taken in chunks of at most CRO_CHUNK_ENTRIES // nodes,
    so the (entries, nodes) quadrature temporaries stay bounded; every
    entry is computed alone, so the chunking does not change the values.
    """
    u = np.clip(u, -1.0, 1.0)
    xi, w = _leggauss(nodes)
    flat = u.reshape(-1)
    integral = np.empty_like(flat)
    step = max(1, CRO_CHUNK_ENTRIES // nodes)
    for start in range(0, flat.size, step):
        half = np.arcsin(flat[start:start + step])[:, None] / 2.0
        t = half * (xi + 1.0)
        values = np.exp(-gamma * gamma / (1.0 + np.sin(t))) / (2.0 * math.pi)
        integral[start:start + step] = (values * w).sum(axis=-1) * half[:, 0]
    return _normal_cdf(gamma) ** 2 + integral.reshape(u.shape)


def _cosine_similarity(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    row_norms = np.linalg.norm(rows, axis=1)
    col_norms = np.linalg.norm(cols, axis=1)
    if np.any(row_norms == 0.0) or np.any(col_norms == 0.0):
        raise DataError("cro kernel undefined for all-zero vectors")
    return (rows @ cols.T) / np.outer(row_norms, col_norms)


def kernel_eval(spec: KernelSpec, x, x2, nodes: int = CRO_QUADRATURE_NODES) -> float:
    """Evaluate the kernel on a single pair of vectors."""
    x = np.asarray(x, dtype=np.float64)
    x2 = np.asarray(x2, dtype=np.float64)
    if x.shape != x2.shape or x.ndim != 1:
        raise DataError("kernel_eval requires two vectors of equal dimension")
    if spec.kind == LINEAR:
        return float(x @ x2)
    if spec.kind == RBF:
        d2 = float(np.sum((x - x2) ** 2))
        return math.exp(-d2 / (2.0 * spec.delta * spec.delta))
    u = _cosine_similarity(x[None, :], x2[None, :])[0, 0]
    return float(_cro_from_cosine(np.asarray(u), spec.cro_gamma, nodes))


def squared_distances(
    rows: np.ndarray, cols: np.ndarray, work: np.ndarray | None = None
) -> np.ndarray:
    """All pairwise squared Euclidean distances, rows x cols, clipped at 0.

    Built in place, so at most two rows x cols arrays are alive at once.
    `work`, a C-contiguous float64 array of shape (2, rows, cols), supplies
    those two arrays, and the result is then its first slice; the same
    operations run in the same order, so the values are bitwise the same.
    """
    r2 = np.einsum("ij,ij->i", rows, rows)[:, None]
    c2 = np.einsum("ij,ij->i", cols, cols)[None, :]
    if work is None:
        d2 = r2 + c2
        d2 -= (2.0 * rows) @ cols.T
    else:
        d2 = np.add(r2, c2, out=work[0])
        d2 -= np.matmul(2.0 * rows, cols.T, out=work[1])
    np.maximum(d2, 0.0, out=d2)
    return d2


def gram_block(spec: KernelSpec, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Kernel matrix between two point sets, entry (i,j) = K(rows[i], cols[j]).

    Passing the same array for rows and cols yields an exactly symmetric
    matrix.
    """
    rows = np.asarray(rows, dtype=np.float64)
    cols = np.asarray(cols, dtype=np.float64)
    if rows.ndim != 2 or cols.ndim != 2:
        raise DataError("gram_block requires 2-d matrices")
    if rows.shape[1] != cols.shape[1]:
        raise DataError(
            f"dimension mismatch: rows have {rows.shape[1]} columns, cols {cols.shape[1]}"
        )
    same = rows is cols
    if spec.kind == LINEAR:
        gram = rows @ cols.T
    elif spec.kind == RBF:
        # in place; bitwise equal to exp(-d2 / (2 delta^2))
        gram = squared_distances(rows, cols)
        # a subnormal 2 delta^2 overflows quotients to -inf: exp gives the 0.0 of any < -745.2
        with np.errstate(over="ignore"):
            np.divide(gram, -2.0 * spec.delta * spec.delta, out=gram)
        np.exp(gram, out=gram)
    else:
        gram = _cro_from_cosine(
            _cosine_similarity(rows, cols), spec.cro_gamma, CRO_QUADRATURE_NODES
        )
    if same:
        gram = (gram + gram.T) / 2.0
    return gram
