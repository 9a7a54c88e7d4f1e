"""Kernel evaluation and Gram blocks.

Three kernels: linear (dot product), rbf exp(-||x-x'||^2 / (2 delta^2)),
and the cosine-similarity CRO kernel

    Phi^2(g) + integral_0^u exp(-g^2/(1+rho)) / (2 pi sqrt(1-rho^2)) drho,

with u the cosine similarity and Phi the standard normal CDF. The CRO
integrand is singular at rho = 1; substituting rho = sin t turns it into
the smooth integral of exp(-g^2/(1+sin t)) / (2 pi) over [0, asin(u)],
which fixed-order Gauss-Legendre quadrature handles deterministically.

Squared distances p.p + c.c - 2 p.c are formed in one place and serve
both the rbf Gram and the nearest-centre pass of k-means: the products
come from one matmul. For the Gram and a single centre set (a k-means
restart run alone) the rest runs in cache-sized row blocks; a stack of
centre sets takes it in one (sets, rows, centres) array.
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
# the row blocks of a squared-distance pass hold about this many entries
# (512 KB), so the one block buffer stays in L2 while it is reused
DISTANCE_BLOCK_ENTRIES = 1 << 16


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
    row_lengths = np.linalg.norm(rows, axis=1)
    col_lengths = np.linalg.norm(cols, axis=1)
    if np.any(row_lengths == 0.0) or np.any(col_lengths == 0.0):
        raise DataError("cro kernel undefined for all-zero vectors")
    return (rows @ cols.T) / np.outer(row_lengths, col_lengths)


def kernel_eval(spec: KernelSpec, x, x2) -> float:
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
    return float(_cro_from_cosine(np.asarray(u), spec.cro_gamma, CRO_QUADRATURE_NODES))


def row_norms(points: np.ndarray) -> np.ndarray:
    """Squared Euclidean norm p.p of each row."""
    return np.einsum("ij,ij->i", points, points)


def _distance_blocks(norms: np.ndarray, col_norms: np.ndarray, products: np.ndarray):
    """Squared distances (p.p + c.c) - 2 p.c, clipped at 0, in row blocks.

    `products` holds every 2 p.c. Yields (rows, block) pairs, where `block`
    is the distances of those rows in one reused buffer of about
    DISTANCE_BLOCK_ENTRIES entries. Each entry passes through the same
    operations in the same order whatever the blocking, so the values are
    bitwise those of the one-piece formula.
    """
    count, width = products.shape
    step = max(1, DISTANCE_BLOCK_ENTRIES // max(width, 1))
    buffer = np.empty((min(step, count), width))
    for start in range(0, count, step):
        rows = slice(start, min(start + step, count))
        block = buffer[: rows.stop - start]
        np.add(norms[rows, None], col_norms, out=block)
        block -= products[rows]
        np.maximum(block, 0.0, out=block)
        yield rows, block


def squared_distances(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """All pairwise squared Euclidean distances, rows x cols, clipped at 0.

    The one rows x cols array built holds the products 2 p.c, which are
    overwritten block by block with the distances.
    """
    distances = (2.0 * rows) @ cols.T
    for block, d2 in _distance_blocks(row_norms(rows), row_norms(cols), distances):
        distances[block] = d2
    return distances


def nearest_centres(
    centres: np.ndarray, doubled: np.ndarray, norms: np.ndarray, products: np.ndarray
) -> np.ndarray:
    """Index of the nearest centre for each row p; ties go to the lowest index.

    The rows enter as `doubled` (2p) and `norms` (p.p), which a caller that
    assigns the same rows many times computes once. `products`, a
    C-contiguous float64 (rows, centres) buffer, receives every 2 p.c from
    one matmul: a product split into row blocks can change bits under a
    multi-threaded BLAS, while the blocked elementwise pass and the row-wise
    argmin cannot. So the indices are those of the one-piece distances.

    `centres` may also be a (b, centres, n) stack of centre sets. Each
    set's products then come from its own one-piece matmul into
    `products`, and its distances go into its slice of one
    (b, rows, centres) array, whose argmin is taken at once. The (b, rows)
    indices are those of b separate calls.
    """
    if centres.ndim == 3:
        distances = np.empty((len(centres),) + products.shape)
        col_norms = np.einsum("bij,bij->bi", centres, centres)
        for centre_set, set_norms, out in zip(centres, col_norms, distances):
            np.matmul(doubled, centre_set.T, out=products)
            np.add(norms[:, None], set_norms, out=out)
            out -= products
        np.maximum(distances, 0.0, out=distances)
        return distances.argmin(axis=2)
    np.matmul(doubled, centres.T, out=products)
    nearest = np.empty(len(products), dtype=np.intp)
    for block, d2 in _distance_blocks(norms, row_norms(centres), products):
        np.argmin(d2, axis=1, out=nearest[block])
    return nearest


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
