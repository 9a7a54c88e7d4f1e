"""Independent reference implementations used to check the fast paths.

Everything here deliberately takes the slow, explicit route: granule
weight matrices are materialized as dense outer products, stationarity
systems are assembled in full and solved with plain numpy, integrals are
estimated by Monte Carlo, and gradients come from per-coordinate central
differences on the explicit objective. None of it shares code with the
package internals it verifies.
"""

import itertools
import json

import numpy as np

from lugsi.kernels import gram_block


def dense_linear_fit(X, y, granule_members, v_vectors, gamma):
    """Solve the full (n+1) stationarity system with explicit outer products."""
    l, n = X.shape
    m = len(granule_members)
    A = np.zeros((n + 1, n + 1))
    rhs = np.zeros(n + 1)
    for members, v in zip(granule_members, v_vectors):
        Xk = X[members]
        Yk = y[members].astype(float)
        Vk = np.outer(v, v)
        ones = np.ones(len(members))
        A[:n, :n] += Xk.T @ Vk @ Xk
        A[:n, n] += Xk.T @ Vk @ ones
        A[n, :n] += ones @ Vk @ Xk
        A[n, n] += ones @ Vk @ ones
        rhs[:n] += Xk.T @ Vk @ Yk
        rhs[n] += ones @ Vk @ Yk
    A[:n, :n] += gamma * m * np.eye(n)
    sol = np.linalg.solve(A, rhs)
    return sol[:n], sol[n]


def dense_kernel_fit(K, y, granule_members, v_vectors, gamma):
    """Kernel-space analogue over the full l x l Gram matrix."""
    l = K.shape[0]
    m = len(granule_members)
    A = np.zeros((l + 1, l + 1))
    rhs = np.zeros(l + 1)
    for members, v in zip(granule_members, v_vectors):
        Kk = K[members]
        Yk = y[members].astype(float)
        Vk = np.outer(v, v)
        ones = np.ones(len(members))
        A[:l, :l] += Kk.T @ Vk @ Kk
        A[:l, l] += Kk.T @ Vk @ ones
        A[l, :l] += ones @ Vk @ Kk
        A[l, l] += ones @ Vk @ ones
        rhs[:l] += Kk.T @ Vk @ Yk
        rhs[l] += ones @ Vk @ Yk
    A[:l, :l] += gamma * m * np.eye(l)
    sol = np.linalg.solve(A, rhs)
    return sol[:l], sol[l]


def explicit_objective_linear(X, y, granule_members, v_vectors, gamma, w, b):
    """Accumulated objective with V_k materialized, no shortcuts."""
    total = 0.0
    m = len(granule_members)
    for members, v in zip(granule_members, v_vectors):
        resid = X[members] @ w + b - y[members].astype(float)
        total += float(resid @ np.outer(v, v) @ resid)
    return total + gamma * m * float(w @ w)


def explicit_objective_kernel(K, y, granule_members, v_vectors, gamma, A, c):
    total = 0.0
    m = len(granule_members)
    for members, v in zip(granule_members, v_vectors):
        resid = K[members] @ A + c - y[members].astype(float)
        total += float(resid @ np.outer(v, v) @ resid)
    return total + gamma * m * float(A @ A)


def reference_granule_weights(X, y, granule_members, kind, references=None):
    """The weight builders as first written: one granule at a time.

    `kind` is "raw", "normalized" or "unit", and `references` None means
    the uniform measure on the unit cube. A normalized granule is divided
    by its maximum, or, under the uniform measure when that maximum is
    below the smallest normal float, set to exp(log v - max log v) if
    that is finite. Returns the joined (v, ends, s, t).
    """
    if kind == "unit":
        values = np.ones(len(X))
    elif references is None:
        values = np.prod(1.0 - X, axis=1)
    else:
        dominates = np.all(references[:, None, :] >= X[None], axis=2)
        values = dominates.sum(axis=0) / len(references)
    normalize = kind == "normalized"

    def weight(v, members):
        top = v.max()
        if normalize and references is None and top < np.finfo(np.float64).tiny:
            with np.errstate(divide="ignore"):
                log_v = np.log1p(-X[members]).sum(axis=1)
            if np.isfinite(log_v.max()):
                return np.exp(log_v - log_v.max())
        return v / top if normalize and top > 0.0 else v

    labels = y.astype(np.float64)
    vs = [weight(values[members], members) for members in granule_members]
    targets = [float(v @ labels[members]) for v, members in zip(vs, granule_members)]
    ends = np.cumsum([v.size for v in vs])
    return np.concatenate(vs), ends, np.array([v.sum() for v in vs]), np.array(targets)


def reference_design_rows(X, order, ends, weights, kernel, blocks):
    """P as `solver._design_rows` first built it: one walk over the rows in
    granule order, adding one segment product per granule and block, the
    singletons included. `blocks` are the row slices of the walk (the
    solver's `_row_blocks` for a kernel, so the segments split alike), and
    a kernel block is `gram_block(kernel, X[order[rows]], X)`."""
    linear = kernel is None
    ends = ends.tolist()
    P = np.zeros((len(ends), X.shape[1] if linear else X.shape[0]), dtype=np.float64)
    k = 0
    for rows in blocks:
        block = X[order[rows]] if linear else gram_block(kernel, X[order[rows]], X)
        lo = rows.start
        while lo < rows.stop:
            while ends[k] <= lo:
                k += 1
            hi = min(ends[k], rows.stop)
            P[k] += weights[lo:hi] @ block[lo - rows.start:hi - rows.start]
            lo = hi
    return P


def reference_cholesky_solve(M, rhs):
    """Solve M z = rhs for symmetric positive definite M by forward and back
    substitution one row at a time on the Cholesky factor L; also returns
    the condition hint (max diag L / min diag L)^2."""
    L = np.linalg.cholesky(M)
    n = M.shape[0]
    y = np.zeros_like(rhs)
    for i in range(n):
        y[i] = (rhs[i] - L[i, :i] @ y[:i]) / L[i, i]
    z = np.zeros_like(rhs)
    for i in reversed(range(n)):
        z[i] = (y[i] - L[i + 1:, i] @ z[i + 1:]) / L[i, i]
    diag = np.diag(L)
    return z, float((diag.max() / diag.min()) ** 2)


def _plain(value):
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    raise TypeError(f"cannot serialize value of type {type(value)!r}")


def reference_dump_document(doc):
    """A document's text as `serialize.dump_document` first wrote it: the
    standard json encoder at indent=2, numpy values through `tolist()`."""
    return json.dumps(doc, indent=2, allow_nan=False, default=_plain) + "\n"


def fd_gradient_norm(objective, theta, h=1e-6):
    """Per-coordinate central differences of a scalar objective."""
    theta = np.asarray(theta, dtype=float)
    grad = np.empty_like(theta)
    for i in range(theta.size):
        step = np.zeros_like(theta)
        step[i] = h
        grad[i] = (objective(theta + step) - objective(theta - step)) / (2.0 * h)
    return float(np.linalg.norm(grad))


def domination_fraction(point, references):
    """Brute-force share of reference points >= point in every coordinate."""
    count = 0
    for ref in references:
        if all(r >= p for r, p in zip(ref, point)):
            count += 1
    return count / len(references)


def mc_pair_integral(xi, xj, samples, seed):
    """Monte Carlo estimate (and standard error) of the probability that a
    uniform cube point dominates both xi and xj componentwise."""
    rng = np.random.default_rng(seed)
    draws = rng.random((samples, len(xi)))
    hits = np.all(draws >= np.maximum(xi, xj), axis=1)
    p = hits.mean()
    se = np.sqrt(max(p * (1 - p), 1e-12) / samples)
    return p, se

def best_two_partition_error(points):
    """Exhaustive best clustering error over all 2-partitions."""
    l = len(points)
    best = np.inf
    for mask in itertools.product([0, 1], repeat=l):
        mask = np.array(mask, dtype=bool)
        if mask.all() or not mask.any():
            continue
        err = 0.0
        for side in (mask, ~mask):
            group = points[side]
            err += float(np.sum((group - group.mean(axis=0)) ** 2))
        best = min(best, err)
    return best


def reference_kmeans(X, m, seed, restarts):
    """k-means++ seeding and Lloyd iterations as first written: every pick
    updates every row and draws with rng.choice, centroid sums use
    np.add.at, and every restart runs. Returns (assignments, centroids,
    granule_members, clustering_error, iterations_run)."""
    max_iters, tol = 100, 1e-6
    l = X.shape[0]

    def squared_distances(rows, cols):
        d2 = np.einsum("ij,ij->i", rows, rows)[:, None] + np.einsum("ij,ij->i", cols, cols)[None, :]
        d2 -= (2.0 * rows) @ cols.T
        np.maximum(d2, 0.0, out=d2)
        return d2

    def seed_centroids(rng):
        chosen = np.empty(m, dtype=np.int64)
        chosen[0] = rng.integers(l)
        d2 = np.sum((X - X[chosen[0]]) ** 2, axis=1)
        for k in range(1, m):
            total = d2.sum()
            if total > 0.0:
                chosen[k] = rng.choice(l, p=d2 / total)
            else:
                chosen[k] = rng.integers(l)
            d2 = np.minimum(d2, np.sum((X - X[chosen[k]]) ** 2, axis=1))
        return X[chosen].copy()

    def assign(centroids):
        assignments = np.argmin(squared_distances(X, centroids), axis=1)
        counts = np.bincount(assignments, minlength=m)
        for k in np.flatnonzero(counts == 0):
            dist = np.sum((X - centroids[k]) ** 2, axis=1)
            for idx in np.argsort(-dist, kind="stable"):
                if counts[assignments[idx]] > 1:
                    counts[assignments[idx]] -= 1
                    assignments[idx] = k
                    counts[k] = 1
                    break
            else:
                raise ValueError("cannot repair empty cluster")
        return assignments

    def error(centroids, assignments):
        return float(np.sum((X - centroids[assignments]) ** 2))

    def lloyd(centroids):
        assignments = None
        for iterations in range(1, max_iters + 1):
            fresh = assign(centroids)
            if assignments is not None and np.array_equal(fresh, assignments):
                break
            assignments = fresh
            sums = np.zeros_like(centroids)
            np.add.at(sums, assignments, X)
            updated = sums / np.bincount(assignments, minlength=m)[:, None]
            shift = np.max(np.linalg.norm(updated - centroids, axis=1))
            centroids = updated
            if shift < tol:
                assignments = assign(centroids)
                break
        else:
            assignments = assign(centroids)
        return assignments, centroids, error(centroids, assignments), iterations

    rng = np.random.Generator(np.random.PCG64(seed))
    best = None
    for _ in range(restarts):
        run = lloyd(seed_centroids(rng))
        if best is None or run[2] < best[2]:
            best = run
    assignments, centroids, err, iterations = best
    order = np.argsort(assignments, kind="stable")
    members = np.split(order, np.cumsum(np.bincount(assignments, minlength=m))[:-1])
    return assignments, centroids, members, err, iterations
