"""Independent oracles used by the test suite.

These deliberately avoid the library's solver machinery: the simplex
minimizer below is a pure brute-force grid search plus pattern-search
refinement driven only by objective evaluations.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np


def simplex_grid(n: int, resolution: int) -> np.ndarray:
    """All points of the probability simplex with coordinates k/resolution.

    Enumerated via compositions of ``resolution`` into ``n`` parts; rows sum
    to exactly 1.
    """
    points = []
    for dividers in combinations(range(resolution + n - 1), n - 1):
        prev = -1
        parts = []
        for cut in dividers:
            parts.append(cut - prev - 1)
            prev = cut
        parts.append(resolution + n - 2 - prev)
        points.append(parts)
    return np.asarray(points, dtype=float) / resolution


def reconstruction_objective(A: np.ndarray, y: np.ndarray, ridge: float,
                             W: np.ndarray) -> np.ndarray:
    """Objective ||y - A w||^2 + ridge ||w||^2, vectorized over rows of W."""
    W = np.atleast_2d(W)
    resid = y[None, :] - W @ A.T
    return np.einsum("ij,ij->i", resid, resid) + ridge * np.einsum("ij,ij->i", W, W)


def brute_force_simplex_min(A: np.ndarray, y: np.ndarray, ridge: float,
                            coarse_resolution: int = 10,
                            final_step: float = 1e-4) -> tuple[np.ndarray, float]:
    """Grid search over the simplex with local pairwise-exchange refinement.

    Starts from the best coarse grid point, then repeatedly tries all moves
    w + step * (e_i - e_j) at shrinking step sizes down to ``final_step``.
    Returns (weights, objective).
    """
    n = A.shape[1]
    if n == 1:
        w = np.ones(1)
        return w, float(reconstruction_objective(A, y, ridge, w)[0])

    grid = simplex_grid(n, coarse_resolution)
    objs = reconstruction_objective(A, y, ridge, grid)
    best = grid[int(np.argmin(objs))].copy()
    best_obj = float(np.min(objs))

    # Precompute exchange directions e_i - e_j for all ordered pairs.
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    directions = np.zeros((len(pairs), n))
    for k, (i, j) in enumerate(pairs):
        directions[k, i] = 1.0
        directions[k, j] = -1.0

    step = 1.0 / coarse_resolution
    while step >= final_step / 2:
        improved = True
        while improved:
            candidates = best[None, :] + step * directions
            feasible = np.all(candidates >= -1e-12, axis=1)
            if not feasible.any():
                break
            cand = np.clip(candidates[feasible], 0.0, None)
            cand /= cand.sum(axis=1, keepdims=True)
            objs = reconstruction_objective(A, y, ridge, cand)
            k = int(np.argmin(objs))
            if objs[k] < best_obj - 1e-15:
                best = cand[k]
                best_obj = float(objs[k])
            else:
                improved = False
        step /= 2.0
    return best, best_obj


def random_reconstruction_instance(rng: np.random.Generator, d: int, n: int):
    """Unit-norm target and candidate vectors for a solver test instance."""
    A = rng.standard_normal((d, n))
    A /= np.linalg.norm(A, axis=0, keepdims=True)
    y = rng.standard_normal(d)
    y /= np.linalg.norm(y)
    return A, y


def reference_assess(target_id, features, pool_ids, effects, cfg, extra=None):
    """``assess`` over a freshly built pool dict: the per-target path that
    the feature store replaces."""
    from types import SimpleNamespace

    from exatlas.composer import assess

    pool = {i: features[i] for i in pool_ids if i != target_id}
    pool.update(extra or {})
    return assess(SimpleNamespace(id=target_id), features[target_id], pool,
                  effects, cfg)


def reference_isolated_ratio(archive, features, cfg, extra=None) -> float:
    """Isolated ratio with one ``assess`` per target over its own pool dict."""
    ids = archive.ids()
    composable = {}
    receives = dict.fromkeys(ids, False)
    for i in ids:
        comp = reference_assess(i, features, ids, None, cfg, extra)
        composable[i] = comp.composable
        for cid, w in comp.weights.items():
            if w > 0.0 and cid in receives:
                receives[cid] = True
    return sum(1 for i in ids if not composable[i] and not receives[i]) / len(ids)
