"""Partition a training set into granules with K-means.

Lloyd iterations from k-means++ seeding, restarted a configurable number
of times with the lowest-error run kept. The restarts stop at a run with
zero clustering error, since no later run can beat it.

One size rule picks how the restarts run: B = STACK_ENTRIES //
(l x max(m, n)) restarts fit one stack (5 on a 142-row wine fold at
m = 89). When B >= 1 every restart runs in stacks of at most B, seeded
and iterated as one array pass, because on small folds a restart's cost
is numpy call overhead, not arithmetic. A stack's k-means++ seeding
updates every row per pick, for all its restarts at once, with the
distance rows from an l x l table when that fits STACK_ENTRIES. When
B = 0 each restart runs alone: its seeding skips the rows that a new
centre provably cannot move (triangle inequality), and its assignment
pass fills one reused l x m buffer with the products 2x.c from a single
matmul, then takes the distances and their argmin in cache-sized row
blocks. A stack's pass takes each restart's products from that same one
matmul into that buffer, its distances into its slice of one
(stack, l, m) array, and the argmin of the whole stack at once. Each
restart draws, picks and iterates exactly as it would alone, on either
path. A requested error trace runs the restarts one by one, so it stays
per run and in order. Everything is deterministic under the seed:
assignment ties go to the lowest centroid index, granule contributions
are ordered by index, and clusters that empty during an update are
repaired by stealing the point farthest from the empty cluster's current
centroid.
"""

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property

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
# restarts run in stacks whose (stack, l, max(m, n)) arrays hold about
# this many entries (512 KB), and alone when one restart does not fit;
# stacked seeding reads an l x l distance table when it fits too. At 2^17
# the default wine grid ran no faster and its peak RSS rose about 0.5 MB.
STACK_ENTRIES = 1 << 16


@dataclass(frozen=True)
class Granulation:
    """Result of clustering: a full partition of the training rows.

    Granule k is order[ends[k-1]:ends[k]] (from 0 for k = 0): `order`, the
    stable argsort of the assignments, lists the rows granule by granule
    and ascending within each, and `ends` holds the cumulative granule
    sizes. No granule is empty. clustering_error is the sum of squared
    distances of each row to its assigned centroid. The arrays are
    read-only copies, so the caller's own arrays stay writeable.
    """

    assignments: np.ndarray
    centroids: np.ndarray
    clustering_error: float
    iterations_run: int
    seed: int
    order: np.ndarray = field(init=False, repr=False, compare=False)
    ends: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        assignments = np.array(self.assignments, dtype=np.int64)
        centroids = np.array(self.centroids, dtype=np.float64)
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
        """One ascending, read-only index array per granule: views of `order`.
        The package reads `order` and `ends`; tests check against this split."""
        return tuple(np.split(self.order, self.ends[:-1]))


def singleton_granulation(data: Dataset, seed: int = 0) -> Granulation:
    """Each row its own granule, in row order (order = arange(l)), centred on itself."""
    return Granulation(np.arange(data.l), data.features, 0.0, 0, seed)


def _seed_centroids(X: np.ndarray, m: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding of one restart: spread initial centroids by squared distance.

    d2[i] is the computed squared distance from row i to its nearest chosen
    centre, and each pick lowers it to the row's distance to the new centre
    where that is smaller. A pick skips rows by exact triangle pruning
    (Elkan, ICML 2003; Raff, IJCAI 2021): with c_j = nearest[i] the row's
    chosen centre, a new centre c recomputes only the rows with
    ||c - c_j||^2 < PRUNE_FACTOR * d2 + PRUNE_FLOOR. For any other row,
    ||c - c_j|| >= 2 ||x - c_j|| gives ||x - c|| >= ||x - c_j||. The
    relative slack covers the rounding of the three computed distances,
    and PRUNE_FLOOR the absolute rounding of subnormal ones. So the row's
    computed distance to c is never below d2, and a full update's
    np.minimum (`_seed_stack`'s) keeps d2's bits: both pick the same
    centres. An overflowed centre distance bounds nothing, so it prunes no
    row.
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


def _distance_rows(X: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """Squared distances from picked rows to every row, (picks, l).

    Row p is bitwise np.sum((X - X[p]) ** 2, axis=1), as `_seed_centroids`
    computes each row's distance.
    When l x l fits STACK_ENTRIES the rows come from an l x l table, each
    filled the first time its row is picked; otherwise each call takes one
    (picks, l, n) step.
    """
    l = X.shape[0]
    if l * l > STACK_ENTRIES:
        return lambda picks: np.sum((X - X[picks, None]) ** 2, axis=2)
    table, filled = np.empty((l, l)), np.zeros(l, dtype=bool)

    def rows(picks: np.ndarray) -> np.ndarray:
        fresh = picks[~filled[picks]]
        if fresh.size:
            table[fresh] = np.sum((X - X[fresh, None]) ** 2, axis=2)
            filled[fresh] = True
        return table[picks]

    return rows


def _seed_stack(
    X: np.ndarray,
    m: int,
    rng: np.random.Generator,
    count: int,
    distance_rows: Callable[[np.ndarray], np.ndarray],
) -> np.ndarray | None:
    """k-means++ seeding of `count` restarts at once: (count, m, n) centres.

    Each restart draws as `_seed_centroids` would, in restart order: its
    first row, then m - 1 uniforms. A pick is the count of cdf <= u, which
    is searchsorted(u, side="right") on the non-decreasing cdf, and every
    update recomputes every row and keeps the np.minimum, whose bits the
    pruned update matches, so the centres are bitwise those of `count`
    calls of `_seed_centroids`. That holds while every
    total is finite and positive; at any other total (duplicate rows,
    underflowing or overflowing distances) `_seed_centroids` would draw an
    integer or raise, so this returns None and the caller seeds per restart.
    """
    l = X.shape[0]
    chosen = np.empty((count, m), dtype=np.int64)
    uniforms = np.empty((count, m - 1))
    for r in range(count):
        chosen[r, 0] = rng.integers(l)
        uniforms[r] = rng.random(m - 1)
    d2 = distance_rows(chosen[:, 0])
    cdf = np.empty_like(d2)
    for k in range(1, m):
        totals = d2.sum(axis=1, keepdims=True)
        if not (0.0 < totals.min() and totals.max() < np.inf):
            return None
        np.divide(d2, totals, out=cdf)
        cdf.cumsum(axis=1, out=cdf)
        cdf /= cdf[:, -1:]
        chosen[:, k] = (cdf <= uniforms[:, k - 1 : k]).sum(axis=1)
        np.minimum(d2, distance_rows(chosen[:, k]), out=d2)
    return X[chosen]


def _seed_stacks(X: np.ndarray, m: int, rng: np.random.Generator, restarts: int, stack: int):
    """The seeds of every restart in run order, as (b, m, n) stacks.

    With `stack` >= 1 every restart is seeded by `_seed_stack` in stacks
    of at most `stack`, a last short stack or a stack of one included. A
    stack whose stacked seeding returns None is seeded by `_seed_centroids`
    one restart at a time after the generator state is restored. With
    `stack` = 0 every restart is seeded by `_seed_centroids`. A restart
    seeded alone is a stack of its own. Lazy, so a caller that stops early
    seeds no further restart.
    """
    distance_rows = _distance_rows(X) if stack else None
    size = max(stack, 1)
    for start in range(0, restarts, size):
        count = min(size, restarts - start)
        if stack:
            state = rng.bit_generator.state
            seeds = _seed_stack(X, m, rng, count, distance_rows)
            if seeds is not None:
                yield seeds
                continue
            rng.bit_generator.state = state
        for _ in range(count):
            yield _seed_centroids(X, m, rng)[None]


def _assign(
    X: np.ndarray,
    centroids: np.ndarray,
    doubled: np.ndarray,
    norms: np.ndarray,
    products: np.ndarray,
) -> np.ndarray:
    """Nearest centroid per row for each restart of a (b, m, n) stack, then
    give every empty cluster one point; returns (b, l) assignments.

    A single restart takes `kernels.nearest_centres`' blocked pass, a
    stack its stacked one; both fill the one l x m `products` buffer. The
    rows' 2X (`doubled`) and norms are made once per `kmeans_granulate`. The
    point farthest from the empty cluster's current centroid is moved
    there, skipping points that are the sole member of their own cluster.
    """
    count, m, _ = centroids.shape
    if count == 1:
        assignments = nearest_centres(centroids[0], doubled, norms, products)[None]
    else:
        assignments = nearest_centres(centroids, doubled, norms, products)
    flat = (assignments + m * np.arange(count)[:, None]).ravel()
    counts = np.bincount(flat, minlength=count * m).reshape(count, m)
    for r, k in zip(*np.nonzero(counts == 0)):
        dist = np.sum((X - centroids[r, k]) ** 2, axis=1)
        order = np.argsort(-dist, kind="stable")
        for idx in order:
            if counts[r, assignments[r, idx]] > 1:
                counts[r, assignments[r, idx]] -= 1
                assignments[r, idx] = k
                counts[r, k] = 1
                break
        else:
            raise DataError("cannot repair empty cluster: fewer distinct points than granules")
    return assignments


def _error(X: np.ndarray, centroids: np.ndarray, assignments: np.ndarray) -> float:
    return float(np.sum((X - centroids[assignments]) ** 2))


def _lloyd(
    X: np.ndarray,
    columns: np.ndarray,
    seeds: np.ndarray,
    doubled: np.ndarray,
    norms: np.ndarray,
    products: np.ndarray,
    error_trace: list | None,
) -> list:
    """Lloyd iterations of a stack of restarts from their (b, m, n) seeds.

    Returns one (assignments, centroids, error, iterations) per restart, in
    stack order, each that restart's run alone. A restart stops when its
    assignments repeat, or one pass after no centroid moved by TOL or
    more, or one pass after MAX_ITERS iterations (that last pass makes the
    assignments match the stored centroids); then it leaves the stack.
    The centroid sums are one bincount per feature over all active
    restarts, restart r's clusters offset by r * m, and each sums its rows
    in index order. `error_trace` follows restart 0.
    """
    count, m, _ = seeds.shape
    l = X.shape[0]
    weights = np.tile(columns, count) if count > 1 else columns  # count copies of each feature
    runs: list = [None] * count
    index = np.arange(count)  # the stack position of each active restart
    iterations = np.zeros(count, dtype=np.int64)
    final = np.zeros(count, dtype=bool)  # the next pass is the restart's last
    centroids, previous = seeds, None
    for step in range(1, MAX_ITERS + 2):
        fresh = _assign(X, centroids, doubled, norms, products)
        iterations[~final] = step
        if error_trace is not None and not final[0]:
            error_trace.append(_error(X, centroids[0], fresh[0]))
        done = final if previous is None else final | (fresh == previous).all(axis=1)
        if done.any():
            for r in np.flatnonzero(done):
                assignments, settled = fresh[r], centroids[r]
                error = _error(X, settled, assignments)
                runs[index[r]] = (assignments, settled, error, int(iterations[r]))
            if done.all():
                break
            keep = ~done
            index, iterations, centroids, fresh = (
                index[keep], iterations[keep], centroids[keep], fresh[keep]
            )
        active = len(index)
        flat = (fresh + m * np.arange(active)[:, None]).ravel()
        sums = np.column_stack(
            [np.bincount(flat, weights=w[: active * l], minlength=active * m) for w in weights]
        )
        sizes = np.bincount(flat, minlength=active * m)
        # each centroid is the mean of its cluster
        updated = (sums / sizes[:, None]).reshape(centroids.shape)
        shift = np.linalg.norm(updated - centroids, axis=2).max(axis=1)
        centroids, previous = updated, fresh
        if error_trace is not None:
            error_trace.append(_error(X, centroids[0], previous[0]))
        final = (shift < TOL) | (step == MAX_ITERS)
    return runs


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
    distinct rows and m = l that is normally the first run, and no later
    stack is seeded. The one size rule is
    B = STACK_ENTRIES // (l * max(m, n)): with B >= 1 every restart runs in
    stacks of at most B, seeded and iterated together, and with B = 0 each
    runs alone, its k-means++ seeding pruned by the triangle inequality.
    Either way each restart keeps the seeds, iterations and result it would
    have alone. Each pass stops when the assignments repeat, when no
    centroid moves by TOL or more, or after MAX_ITERS iterations. The rows'
    2X, their norms, their C-contiguous transpose (for the centroid sums)
    and the one l x m product buffer are made once here and shared by every
    pass of every restart. When an `error_trace` list is supplied (debug
    aid, meaningful with restarts=1) B is capped at 1, so the restarts run
    one at a time on the path the rule picks, and the per-step clustering
    errors of each run made are appended to it in order.
    """
    if m < 1:
        raise DataError("m must be >= 1")
    if m > data.l:
        raise DataError(f"m={m} exceeds the number of samples {data.l}")
    if restarts < 1:
        raise DataError("restarts must be >= 1")

    X = data.features
    l, n = X.shape
    rng = make_rng(seed)
    stack = STACK_ENTRIES // (l * max(m, n))
    if error_trace is not None:
        stack = min(stack, 1)
    columns = np.ascontiguousarray(X.T)  # one contiguous row per feature
    doubled, norms = 2.0 * X, row_norms(X)
    products = np.empty((l, m))
    runs = (
        run
        for seeds in _seed_stacks(X, m, rng, restarts, stack)
        for run in _lloyd(X, columns, seeds, doubled, norms, products, error_trace)
    )
    best = None
    for run in runs:
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
