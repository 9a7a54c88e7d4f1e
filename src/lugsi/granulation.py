"""Partition a training set into granules with K-means.

Lloyd iterations from k-means++ seeding, restarted a configurable number
of times with the lowest-error run kept. The restarts stop at a run with
zero clustering error, since no later run can beat it. The seeding skips
the rows that a new centre provably cannot move (triangle inequality),
yet picks exactly the centres of a full update. Every assignment pass
fills one reused l x m buffer with the products 2x.c from a single
matmul, then takes the distances and their argmin in cache-sized row
blocks. Everything is deterministic under the seed: assignment ties go
to the lowest centroid index, granule contributions are ordered by
index, and clusters that empty during an update are repaired by
stealing the point farthest from the empty cluster's current centroid.
"""

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from .dataset import Dataset
from .errors import DataError
from .kernels import nearest_centres, row_norms
from .rng import make_rng

MAX_ITERS = 100
TOL = 1e-6  # on the maximum centroid displacement between iterations
# seeding skips a row when ||c - c_j||^2 >= PRUNE_FACTOR * d2 + PRUNE_FLOOR
PRUNE_FACTOR = 4.0 * (1.0 + 1e-9)
PRUNE_FLOOR = 1e-300


@dataclass(frozen=True)
class Granulation:
    """Result of clustering: a full partition of the training rows.

    Granule k is order[ends[k-1]:ends[k]] (from 0 for k = 0): `order`, the
    stable argsort of the assignments, lists the rows granule by granule
    and ascending within each, and `ends` holds the cumulative granule
    sizes. No granule is empty. clustering_error is the sum of squared
    distances of each row to its assigned centroid.
    """

    assignments: np.ndarray
    centroids: np.ndarray
    clustering_error: float
    iterations_run: int
    seed: int
    order: np.ndarray = field(init=False, repr=False, compare=False)
    ends: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        assignments = np.asarray(self.assignments, dtype=np.int64)
        centroids = np.asarray(self.centroids, dtype=np.float64)
        m = centroids.shape[0]
        if m < 1:
            raise DataError("need at least one centroid")
        if np.any(assignments < 0) or np.any(assignments >= m):
            raise DataError(f"assignments must lie in [0, {m})")
        counts = np.bincount(assignments, minlength=m)
        if np.any(counts == 0):
            raise DataError("every granule must be nonempty")
        object.__setattr__(self, "assignments", assignments)
        object.__setattr__(self, "centroids", centroids)
        object.__setattr__(self, "order", np.argsort(assignments, kind="stable"))
        object.__setattr__(self, "ends", np.cumsum(counts))
        for arr in (self.assignments, self.centroids, self.order, self.ends):
            arr.flags.writeable = False

    @property
    def m(self) -> int:
        return self.centroids.shape[0]

    @cached_property
    def granule_members(self) -> tuple:
        """One ascending, read-only index array per granule: views of `order`."""
        return tuple(np.split(self.order, self.ends[:-1]))


def _seed_centroids(X: np.ndarray, m: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: spread initial centroids by squared distance.

    Exact triangle pruning (Elkan, ICML 2003; Raff, IJCAI 2021). d2[i] is
    the computed squared distance from row i to its chosen centre
    c_j, j = nearest[i]. A new centre c recomputes only the rows with
    ||c - c_j||^2 < PRUNE_FACTOR * d2 + PRUNE_FLOOR. For any other row,
    ||c - c_j|| >= 2 ||x - c_j|| gives ||x - c|| >= ||x - c_j||. The
    relative slack covers the rounding of the three computed distances,
    and PRUNE_FLOOR the absolute rounding of subnormal ones. So the row's
    computed distance to c is never below d2, and a full update's
    np.minimum would have kept d2's bits. An overflowed centre distance
    bounds nothing, so it prunes no row.
    """
    l = X.shape[0]
    chosen = np.empty(m, dtype=np.int64)
    chosen[0] = rng.integers(l)
    d2 = np.sum((X - X[chosen[0]]) ** 2, axis=1)
    nearest = np.zeros(l, dtype=np.int64)
    for k in range(1, m):
        total = d2.sum()
        if not np.isfinite(total):
            raise DataError(
                "squared distances overflow during k-means++ seeding; scale the features"
            )
        if total > 0.0:
            # the body of rng.choice(l, p=d2 / total), without its validation
            cdf = np.cumsum(d2 / total)
            cdf /= cdf[-1]
            chosen[k] = cdf.searchsorted(rng.random(), side="right")
        else:
            # all remaining mass sits on already-chosen points (duplicates)
            chosen[k] = rng.integers(l)
        centre = X[chosen[k]]
        cc2 = np.sum((X[chosen[:k]] - centre) ** 2, axis=1)
        cc2[cc2 == np.inf] = 0.0
        rows = np.flatnonzero(cc2[nearest] < PRUNE_FACTOR * d2 + PRUNE_FLOOR)
        fresh = np.sum((X[rows] - centre) ** 2, axis=1)
        closer = fresh < d2[rows]
        d2[rows[closer]] = fresh[closer]
        nearest[rows[closer]] = k
    return X[chosen].copy()


def _assign(
    X: np.ndarray, centroids: np.ndarray, nearest: Callable[[np.ndarray], np.ndarray]
) -> np.ndarray:
    """Nearest centroid per row, then give every empty cluster one point.

    `nearest` maps the centroids to each row's nearest index: it is
    `kernels.nearest_centres` bound to the rows' 2X, their norms and the
    l x m product buffer, all made once per `kmeans_granulate`. The point
    farthest from the empty cluster's current centroid is moved there,
    skipping points that are the sole member of their own cluster.
    """
    m = centroids.shape[0]
    assignments = nearest(centroids)
    counts = np.bincount(assignments, minlength=m)
    for k in np.flatnonzero(counts == 0):
        dist = np.sum((X - centroids[k]) ** 2, axis=1)
        order = np.argsort(-dist, kind="stable")
        for idx in order:
            if counts[assignments[idx]] > 1:
                counts[assignments[idx]] -= 1
                assignments[idx] = k
                counts[k] = 1
                break
        else:
            raise DataError("cannot repair empty cluster: fewer distinct points than granules")
    return assignments


def _error(X: np.ndarray, centroids: np.ndarray, assignments: np.ndarray) -> float:
    return float(np.sum((X - centroids[assignments]) ** 2))


def _lloyd(
    X: np.ndarray,
    columns: np.ndarray,
    centroids: np.ndarray,
    nearest: Callable[[np.ndarray], np.ndarray],
    error_trace: list | None,
) -> tuple[np.ndarray, np.ndarray, float, int]:
    m = centroids.shape[0]
    assignments = None
    for iterations in range(1, MAX_ITERS + 1):
        fresh = _assign(X, centroids, nearest)
        if error_trace is not None:
            error_trace.append(_error(X, centroids, fresh))
        if assignments is not None and np.array_equal(fresh, assignments):
            break
        assignments = fresh
        # each centroid is the mean of its cluster; bincount sums rows in index order
        sums = np.column_stack(
            [np.bincount(assignments, weights=col, minlength=m) for col in columns]
        )
        updated = sums / np.bincount(assignments, minlength=m)[:, None]
        shift = np.max(np.linalg.norm(updated - centroids, axis=1))
        centroids = updated
        if error_trace is not None:
            error_trace.append(_error(X, centroids, assignments))
        if shift < TOL:
            # final consistency pass so assignments match the stored centroids
            assignments = _assign(X, centroids, nearest)
            break
    else:
        assignments = _assign(X, centroids, nearest)
    return assignments, centroids, _error(X, centroids, assignments), iterations


def kmeans_granulate(
    data: Dataset,
    m: int,
    seed: int,
    restarts: int = 10,
    error_trace: list | None = None,
) -> Granulation:
    """Cluster the dataset into m granules.

    Runs up to `restarts` independently seeded Lloyd passes and keeps the
    one with the lowest clustering error (ties to the earliest run). A run
    with zero error cannot be beaten, so the restarts stop there; with
    distinct rows and m = l that is normally the first run. The k-means++
    seeding prunes rows by the triangle inequality but picks exactly the
    centres a full update would. Each pass stops when the assignments
    repeat, when no centroid moves by TOL or more, or after MAX_ITERS
    iterations. The rows' 2X, their norms, their C-contiguous transpose
    (for the centroid sums) and the one l x m product buffer are made once
    here and shared by every pass of every restart. When an `error_trace`
    list is supplied (debug aid, meaningful with restarts=1) the per-step
    clustering errors are appended to it; with restarts > 1 it holds only
    the runs made.
    """
    if m < 1:
        raise DataError("m must be >= 1")
    if m > data.l:
        raise DataError(f"m={m} exceeds the number of samples {data.l}")
    if restarts < 1:
        raise DataError("restarts must be >= 1")

    X = data.features
    rng = make_rng(seed)
    columns = np.ascontiguousarray(X.T)  # one contiguous row per feature
    nearest = partial(
        nearest_centres, doubled=2.0 * X, norms=row_norms(X), products=np.empty((data.l, m))
    )
    best = None
    for _ in range(restarts):
        run = _lloyd(X, columns, _seed_centroids(X, m, rng), nearest, error_trace)
        if best is None or run[2] < best[2]:
            best = run
        if best[2] == 0.0:
            break
    assignments, centroids, error, iterations = best
    return Granulation(assignments, centroids, error, iterations, seed)


def assign_to_granules(points: np.ndarray, granulation: Granulation) -> np.ndarray:
    """Nearest-centroid index for each point; ties go to the lowest index."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise DataError("points must be a 2-d matrix")
    if points.shape[0] == 0:
        return np.empty(0, dtype=np.int64)
    if points.shape[1] != granulation.centroids.shape[1]:
        raise DataError(
            f"dimension mismatch: points have {points.shape[1]} columns, "
            f"centroids have {granulation.centroids.shape[1]}"
        )
    products = np.empty((points.shape[0], granulation.m))
    return nearest_centres(granulation.centroids, 2.0 * points, row_norms(points), products)
