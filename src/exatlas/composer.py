"""Local neighborhoods, simplex-constrained ridge reconstruction, and effect composition.

A target feature vector is reconstructed as a convex combination of nearby
source vectors. The reconstruction residual, normalized by the median distance
to the full source pool, gates whether the target counts as composable; the
same weights then average the sources' observed effects into a prediction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

import numpy as np

from .archive import Experiment

OPTIMAL = "optimal"
FALLBACK_UNIFORM = "fallback-uniform"

WEIGHT_SUM_TOL = 1e-6
_ZERO_RESIDUAL_TOL = 1e-12
# A squared distance read off the Gram matrix is trusted to within this
# fraction of ||x_j||^2 + ||x_t||^2. Its rounding error, and that of the exact
# form, is a small multiple of (feature length) * 2**-53 of that sum: about
# 1e-12 at length 2304, far inside the band.
GRAM_BAND = 1e-9


class ComposerError(Exception):
    """Base class for composition failures."""


class EmptyPoolError(ComposerError):
    pass


class DimensionError(ComposerError):
    def __init__(self, target_len: int, candidate_len: int):
        super().__init__(
            f"dimension mismatch: target has length {target_len}, "
            f"candidate has length {candidate_len}"
        )
        self.target_len = target_len
        self.candidate_len = candidate_len


class DegenerateScaleError(ComposerError):
    """Local scale is zero but the reconstruction residual is not."""


class MissingEffectError(ComposerError):
    def __init__(self, experiment_id: str):
        super().__init__(f"no observed effect for experiment {experiment_id!r}")
        self.experiment_id = experiment_id


@dataclass(frozen=True)
class ComposerConfig:
    """Knobs for candidate selection and the reconstruction solve.

    Defaults: candidates within 1.5x the median pool distance, capped at the
    30 nearest; ridge penalty 1e-2 on the squared weight norm; composability
    threshold 0.462 on the normalized residual.
    """

    radius_factor: float = 1.5
    max_candidates: int = 30
    ridge: float = 1e-2
    lambda_: float = 0.462

    def __post_init__(self) -> None:
        if self.radius_factor <= 0:
            raise ValueError("radius_factor must be > 0")
        if self.max_candidates < 1:
            raise ValueError("max_candidates must be >= 1")
        if self.ridge < 0:
            raise ValueError("ridge must be >= 0")
        if self.lambda_ <= 0:
            raise ValueError("lambda_ must be > 0")


@dataclass(frozen=True)
class Neighborhood:
    """Selected candidates, ascending by (distance, id), plus the local scale.

    ``local_scale`` is the median distance over the FULL pre-cap pool, not
    over the kept candidates.
    """

    target_id: str
    candidate_ids: tuple[str, ...]
    distances: tuple[float, ...]
    local_scale: float


@dataclass(frozen=True)
class Composition:
    """Outcome of one composability assessment.

    ``composed_effect`` is None only when a positive-weight candidate has no
    observed effect (hypothetical bridge nodes participate in geometry but
    never in effect prediction).
    """

    target_id: str
    weights: Mapping[str, float]
    residual: float
    normalized_residual: float
    composed_effect: float | None
    composable: bool
    solver_status: str
    neighborhood: Neighborhood

    def to_record(self) -> dict[str, Any]:
        return {
            "target_id": self.target_id,
            "weights": {k: float(v) for k, v in self.weights.items()},
            "r": float(self.residual),
            "rho": float(self.normalized_residual),
            "composed_effect": None if self.composed_effect is None
            else float(self.composed_effect),
            "composable": bool(self.composable),
            "solver_status": self.solver_status,
        }


def select_candidates(target_id: str, target_x: np.ndarray,
                      pool: Mapping[str, np.ndarray],
                      cfg: ComposerConfig) -> Neighborhood:
    """Pick source candidates within ``radius_factor`` times the median pool distance.

    The eligible set is truncated to the nearest ``max_candidates``; ties at
    the boundary break by lexicographic id so runs are deterministic.
    """
    if not pool:
        raise EmptyPoolError("candidate pool is empty")
    if target_id in pool:
        raise ValueError(f"pool must exclude the target id {target_id!r}")
    target_x = np.asarray(target_x, dtype=float)
    ids = list(pool.keys())
    mat = np.stack([np.asarray(pool[i], dtype=float) for i in ids])
    if mat.shape[1] != target_x.shape[0]:
        raise DimensionError(target_x.shape[0], mat.shape[1])
    dists = np.linalg.norm(mat - target_x, axis=1)
    local_scale = float(np.median(dists))
    radius = cfg.radius_factor * local_scale
    order = sorted(zip((float(d) for d in dists), ids))
    kept = [(d, i) for d, i in order if d <= radius][: cfg.max_candidates]
    return Neighborhood(
        target_id=target_id,
        candidate_ids=tuple(i for _, i in kept),
        distances=tuple(d for d, _ in kept),
        local_scale=local_scale,
    )


def solve_weights(target_x: np.ndarray, candidates: Sequence[np.ndarray],
                  ridge: float) -> tuple[np.ndarray, str]:
    """Minimize ||x_t - sum_j w_j x_j||^2 + ridge*||w||^2 over the probability simplex.

    Returns (weights, status). Solver failure is not an error: it falls back
    to uniform weights over the candidates with status "fallback-uniform".
    """
    if not candidates:
        raise EmptyPoolError("need at least one candidate")
    target_x = np.asarray(target_x, dtype=float)
    A = np.column_stack([np.asarray(c, dtype=float) for c in candidates])
    if A.shape[0] != target_x.shape[0]:
        raise DimensionError(target_x.shape[0], A.shape[0])
    n = A.shape[1]
    if n == 1:
        return np.ones(1), OPTIMAL
    try:
        w = _active_set_simplex(A, target_x, ridge)
        if not (np.all(np.isfinite(w)) and abs(w.sum() - 1.0) <= WEIGHT_SUM_TOL
                and w.min() >= -WEIGHT_SUM_TOL):
            raise ArithmeticError("solver returned an infeasible point")
    except (ArithmeticError, np.linalg.LinAlgError):
        # Conservative posture: a numerical failure degrades to uniform
        # weights rather than aborting the assessment.
        return np.full(n, 1.0 / n), FALLBACK_UNIFORM
    w = np.maximum(w, 0.0)
    return w / w.sum(), OPTIMAL


def _solve_on_face(G: np.ndarray, b: np.ndarray,
                   free: np.ndarray) -> tuple[np.ndarray, float]:
    """Solve the equality-constrained problem restricted to the free coordinates.

    KKT system for  min w'Gw - 2b'w  s.t.  sum(w) = 1  on the face.
    Returns the face weights and the sum-constraint multiplier nu, with the
    sign convention  2(Gw - b)_i = nu  on free coordinates.
    """
    idx = np.flatnonzero(free)
    k = idx.size
    kkt = np.zeros((k + 1, k + 1))
    kkt[:k, :k] = 2.0 * G[np.ix_(idx, idx)]
    kkt[:k, k] = -1.0
    kkt[k, :k] = 1.0
    rhs = np.concatenate([2.0 * b[idx], [1.0]])
    try:
        sol = np.linalg.solve(kkt, rhs)
    except np.linalg.LinAlgError:
        sol = np.linalg.lstsq(kkt, rhs, rcond=None)[0]
    return sol[:k], float(sol[k])


def _active_set_simplex(A: np.ndarray, y: np.ndarray, ridge: float) -> np.ndarray:
    """Primal active-set method for the simplex-constrained ridge problem.

    Starts at the best single vertex, then alternates exact solves on the
    current face with boundary steps that zero out blocking coordinates, and
    admits the worst dual violator until the KKT conditions hold. Exact (to
    linear-solve precision) for strictly convex objectives.
    """
    n = A.shape[1]
    G = A.T @ A + ridge * np.eye(n)
    b = A.T @ y
    w = np.zeros(n)
    free = np.zeros(n, dtype=bool)
    free[int(np.argmin(np.diag(G) - 2.0 * b))] = True
    w[free] = 1.0
    nu = 0.0
    for _ in range(3 * n + 20):
        # Inner phase: restore primal feasibility on the free set.
        for _ in range(n + 2):
            wf, nu = _solve_on_face(G, b, free)
            if wf.min() >= -1e-12:
                w = np.zeros(n)
                w[np.flatnonzero(free)] = np.maximum(wf, 0.0)
                break
            idx = np.flatnonzero(free)
            cur = w[idx]
            step = wf - cur
            blocking = step < -1e-16
            theta = min(1.0, float(np.min(cur[blocking] / -step[blocking])))
            cur = cur + theta * step
            w = np.zeros(n)
            w[idx] = np.maximum(cur, 0.0)
            hit = idx[cur <= 1e-14]
            free[hit] = False
            w[hit] = 0.0
            if not free.any():
                raise ArithmeticError("active set emptied")
        else:
            raise ArithmeticError("no primal convergence on face")
        grad = 2.0 * (G @ w - b)
        inactive = np.flatnonzero(~free)
        if inactive.size == 0:
            return w / w.sum()
        mu = grad[inactive] - nu
        tol = 1e-9 * (1.0 + float(np.abs(grad).max()))
        if mu.min() >= -tol:
            return w / w.sum()
        free[inactive[int(np.argmin(mu))]] = True
    raise ArithmeticError("active-set iteration limit reached")


def residuals(target_x: np.ndarray, candidates: Sequence[np.ndarray],
              weights: np.ndarray, local_scale: float) -> tuple[float, float]:
    """Reconstruction error r and its locally normalized form rho = r / s.

    When the local scale is zero (all candidates coincide with the target)
    rho is defined as 0 if r is also zero, and an error otherwise.
    """
    target_x = np.asarray(target_x, dtype=float)
    A = np.column_stack([np.asarray(c, dtype=float) for c in candidates])
    r = float(np.linalg.norm(target_x - A @ np.asarray(weights, dtype=float)))
    return r, _normalized(r, local_scale)


def _normalized(r: float, local_scale: float) -> float:
    if local_scale > 0:
        return r / local_scale
    if r <= _ZERO_RESIDUAL_TOL:
        return 0.0
    raise DegenerateScaleError(
        f"local scale is 0 but the residual is {r:.3g}"
    )


def compose_effect(weights: Mapping[str, float],
                   effects: Mapping[str, float]) -> float:
    """Weighted sum of observed effects under the composition weights."""
    for k in weights:
        if k not in effects:
            raise MissingEffectError(k)
    return math.fsum(weights[k] * effects[k] for k in weights)


def assess(target: Experiment, target_x: np.ndarray,
           pool_features: Mapping[str, np.ndarray],
           pool_effects: Mapping[str, float] | None,
           cfg: ComposerConfig) -> Composition:
    """Full pipeline: select candidates, solve weights, gate on the residual.

    The composed effect is computed whenever every positive-weight candidate
    has a known effect, whether or not the target passes the gate; callers
    that admit effect-free hypothetical candidates get ``composed_effect=None``.
    """
    nb = select_candidates(target.id, target_x, pool_features, cfg)
    cand_vecs = [pool_features[c] for c in nb.candidate_ids]
    w, status = solve_weights(target_x, cand_vecs, cfg.ridge)
    r, rho = residuals(target_x, cand_vecs, w, nb.local_scale)
    return _composition(nb, w, status, r, rho, pool_effects, cfg)


def _composition(nb: Neighborhood, w: np.ndarray, status: str, r: float,
                 rho: float, pool_effects: Mapping[str, float] | None,
                 cfg: ComposerConfig) -> Composition:
    weights = {cid: float(wi) for cid, wi in zip(nb.candidate_ids, w)}
    positive = {k: v for k, v in weights.items() if v > 0.0}
    if pool_effects is not None and all(k in pool_effects for k in positive):
        composed: float | None = compose_effect(positive, pool_effects)
    else:
        composed = None
    return Composition(
        target_id=nb.target_id,
        weights=weights,
        residual=r,
        normalized_residual=rho,
        composed_effect=composed,
        composable=bool(rho <= cfg.lambda_),
        solver_status=status,
        neighborhood=nb,
    )


class FeatureStore:
    """Feature vectors as the rows of one contiguous matrix, with its Gram matrix.

    Row ``i`` of ``matrix`` is the feature vector of ``ids[i]``; ``gram`` is
    ``matrix @ matrix.T`` and ``sq_norms`` the squared row norms. Together
    they give every pairwise squared distance to within GRAM_BAND, which
    :func:`assess_row` uses to screen candidates. Rows are finite and of one
    length; a store is not modified after it is built.
    """

    def __init__(self, ids: Sequence[str], matrix: np.ndarray, gram: np.ndarray):
        self.ids = tuple(ids)
        self.matrix = matrix
        self.gram = gram
        self.sq_norms = np.einsum("ij,ij->i", matrix, matrix)

    @classmethod
    def from_features(cls, features: Mapping[str, np.ndarray],
                      ids: Sequence[str]) -> "FeatureStore":
        """Stack ``features[i]`` for each of ``ids``, in that order."""
        matrix = _feature_rows(features, ids, None)
        return cls(ids, matrix, matrix @ matrix.T)

    def extended(self, extra: Mapping[str, np.ndarray]) -> "FeatureStore":
        """A store with ``extra``'s rows appended; the Gram block of the
        existing rows is reused, so the cost is O(k * n * length)."""
        if not extra:
            return self
        clash = sorted(set(extra) & set(self.ids))
        if clash:
            raise ValueError(f"ids already in the feature store: {clash[:5]}")
        new_ids = tuple(extra)
        rows = _feature_rows(extra, new_ids, self.matrix.shape[1])
        n, k = len(self.ids), len(new_ids)
        gram = np.empty((n + k, n + k))
        gram[:n, :n] = self.gram
        gram[n:, :n] = rows @ self.matrix.T
        gram[:n, n:] = gram[n:, :n].T
        gram[n:, n:] = rows @ rows.T
        return FeatureStore(self.ids + new_ids, np.vstack([self.matrix, rows]), gram)


def _feature_rows(features: Mapping[str, np.ndarray], ids: Sequence[str],
                  width: int | None) -> np.ndarray:
    rows = [np.asarray(features[i], dtype=float) for i in ids]
    if not rows:
        raise EmptyPoolError("feature store needs at least one row")
    width = rows[0].size if width is None else width
    for i, row in zip(ids, rows):
        if row.shape != (width,):
            raise DimensionError(width, row.size)
        if not np.all(np.isfinite(row)):
            raise ComposerError(f"feature vector of {i!r} has non-finite values")
    return np.stack(rows)


def _select_rows(store: FeatureStore, t: int,
                 cfg: ComposerConfig) -> tuple[tuple[int, ...], tuple[float, ...], float]:
    """:func:`select_candidates` for row ``t`` against every other row.

    Each distance is bracketed from the Gram matrix; an exact norm is taken
    only for rows that could be a middle value of the median or could make
    the kept set, so scale, candidates and distances equal select_candidates'.
    """
    n = len(store.ids)
    if n < 2:
        raise EmptyPoolError("candidate pool is empty")
    others = np.delete(np.arange(n), t)
    sq = store.sq_norms
    d2 = sq[t] + sq[others] - 2.0 * store.gram[t, others]
    band = GRAM_BAND * (sq[t] + sq[others])
    lo = np.sqrt(np.maximum(d2 - band, 0.0))
    hi = np.sqrt(np.maximum(d2 + band, 0.0))
    dist = np.zeros(others.size)
    known = np.zeros(others.size, dtype=bool)

    def refine(mask: np.ndarray) -> None:
        # Row-wise norms sum each row alike however many rows there are, so
        # these are select_candidates' distances bit for bit.
        need = mask & ~known
        dist[need] = np.linalg.norm(store.matrix[others[need]] - store.matrix[t], axis=1)
        known[need] = True

    # The median is the mean of order statistics k1..k2 (k1 == k2 for an odd
    # count). Rows whose interval lies wholly below the k1-th lower bound
    # precede them, rows wholly above the k2-th upper bound follow them.
    k1, k2 = (others.size - 1) // 2, others.size // 2
    floor = np.partition(lo, k1)[k1]
    ceiling = np.partition(hi, k2)[k2]
    middle = (lo <= ceiling) & (hi >= floor)
    refine(middle)
    below = int(np.count_nonzero(hi < floor))
    local_scale = float(np.median(np.sort(dist[middle])[k1 - below:k2 - below + 1]))

    # A row can be kept only if it may lie within the radius and fewer than
    # max_candidates rows certainly lie within the radius and before it.
    radius = cfg.radius_factor * local_scale
    limit = radius
    inside = hi[hi <= radius]
    if inside.size >= cfg.max_candidates:
        limit = min(limit, float(np.partition(inside, cfg.max_candidates - 1)
                                 [cfg.max_candidates - 1]))
    refine(lo <= limit)
    kept = sorted((float(dist[p]), store.ids[others[p]], int(others[p]))
                  for p in np.flatnonzero(known & (dist <= radius)))
    kept = kept[: cfg.max_candidates]
    return tuple(j for _, _, j in kept), tuple(d for d, _, _ in kept), local_scale


def assess_row(store: FeatureStore, t: int,
               pool_effects: Mapping[str, float] | None, cfg: ComposerConfig,
               memo: dict | None = None) -> Composition:
    """:func:`assess` of row ``t`` of ``store`` against every other row.

    The result equals ``assess`` on the pool of every other row, byte for
    byte. ``memo`` maps (t, candidate rows) to (weights, status, r) and skips
    the solve when a target's candidates are unchanged; it is valid only
    across a store and the stores :meth:`FeatureStore.extended` makes from it,
    which keep every existing row where it is.
    """
    rows, dists, scale = _select_rows(store, t, cfg)
    nb = Neighborhood(target_id=store.ids[t],
                      candidate_ids=tuple(store.ids[j] for j in rows),
                      distances=dists, local_scale=scale)
    key = (t, rows)
    if memo is not None and key in memo:
        w, status, r = memo[key]
        rho = _normalized(r, scale)
    else:
        target_x = store.matrix[t]
        cand_vecs = [store.matrix[j] for j in rows]
        w, status = solve_weights(target_x, cand_vecs, cfg.ridge)
        r, rho = residuals(target_x, cand_vecs, w, scale)
        if memo is not None:
            memo[key] = (w, status, r)
    return _composition(nb, w, status, r, rho, pool_effects, cfg)
