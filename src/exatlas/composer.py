"""Local neighborhoods, simplex-constrained ridge reconstruction, and effect composition.

A target feature vector is reconstructed as a convex combination of nearby
source vectors. The reconstruction residual, normalized by the median distance
to the full source pool, gates whether the target counts as composable; the
same weights then average the sources' observed effects into a prediction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Iterator, Mapping, Sequence

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
    dists = _row_distances(mat, target_x)
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


def _row_distances(rows: np.ndarray, target_x: np.ndarray) -> np.ndarray:
    """np.linalg.norm(rows - target_x, axis=1), computed as norm computes it
    but in the buffer ``rows``, which it overwrites."""
    rows -= target_x
    rows *= rows
    return np.sqrt(np.add.reduce(rows, axis=1))


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
    G, b = np.empty((1, n, n)), np.empty((1, n))
    _normal_equations(A, target_x, ridge, G[0], b[0])
    return _solve_stack(G, b)[0]


def _normal_equations(A: np.ndarray, y: np.ndarray, ridge: float,
                      G: np.ndarray, b: np.ndarray) -> None:
    """Write G = A'A + ridge*I and b = A'y for candidate columns ``A``.

    Callers pass a C-contiguous ``A``: the products, and so every weight, are
    then the same bits however the columns were gathered.
    """
    np.matmul(A.T, A, out=G)
    G += ridge * np.eye(A.shape[1])
    np.matmul(A.T, y, out=b)


def _solve_stack(G: np.ndarray, b: np.ndarray) -> list[tuple[np.ndarray, str]]:
    """:func:`solve_weights` for each of a stack of (G, b) problems of one size.

    One candidate gets weight 1 without a solve; otherwise the problems are
    solved in lockstep, each with the result it would have alone.
    """
    m, n = b.shape
    if n == 1:
        return [(np.ones(1), OPTIMAL) for _ in range(m)]
    out = []
    for w in _active_set_simplex(G, b):
        if w is None or not (np.all(np.isfinite(w)) and abs(w.sum() - 1.0) <= WEIGHT_SUM_TOL
                             and w.min() >= -WEIGHT_SUM_TOL):
            # Conservative posture: a numerical failure degrades to uniform
            # weights rather than aborting the assessment.
            out.append((np.full(n, 1.0 / n), FALLBACK_UNIFORM))
        else:
            w = np.maximum(w, 0.0)
            out.append((w / w.sum(), OPTIMAL))
    return out


def _active_set_simplex(G: np.ndarray, b: np.ndarray) -> list[np.ndarray | None]:
    """Primal active-set method for a stack of simplex-constrained ridge problems.

    Problem p minimizes w'G[p]w - 2b[p]'w over the probability simplex. It
    starts at its best single vertex, then alternates exact solves on its
    current face with boundary steps that zero out blocking coordinates, and
    admits its worst dual violator until its KKT conditions hold: exact (to
    linear-solve precision) for strictly convex objectives. The problems
    advance in lockstep, one face solve each per step, so that a step makes
    one stacked solve per face size; each problem's arithmetic, tolerances
    and iteration limits are those of solving it alone.

    Returns each problem's weights, or None where the method fails: the
    active set empties, a face's solves run out (see _iteration_limits), the
    dual steps run out, or the least-squares fallback fails.
    """
    m, n = b.shape
    max_face_solves, max_dual_steps = _iteration_limits(n)
    free = np.zeros((m, n), dtype=bool)
    start = np.argmin(np.diagonal(G, axis1=1, axis2=2) - 2.0 * b, axis=1)
    free[np.arange(m), start] = True
    w = free.astype(float)
    face_solves = np.zeros(m, dtype=int)  # since the last dual step
    dual_steps = np.zeros(m, dtype=int)
    out: list[np.ndarray | None] = [None] * m
    live = np.arange(m)
    while live.size:
        wf, nu, solved = _solve_faces(G, b, free, live)
        face_solves[live] += 1
        on_face = free[live]
        feasible = np.where(on_face, wf, np.inf).min(axis=1) >= -1e-12

        # Inner phase: step towards the face solution, stopping where the
        # first coordinate reaches zero; that coordinate leaves the face.
        inner = solved & ~feasible
        p = live[inner]
        cur = w[p]
        step = np.where(on_face[inner], wf[inner] - cur, 0.0)
        theta = np.divide(cur, -step, out=np.full(step.shape, np.inf),
                          where=step < -1e-16).min(axis=1)
        cur = cur + np.where(theta < 1.0, theta, 1.0)[:, None] * step
        free[p] &= ~(cur <= 1e-14)
        w[p] = np.where(free[p], np.maximum(cur, 0.0), 0.0)
        stuck = p[~free[p].any(axis=1) | (face_solves[p] == max_face_solves)]

        # Outer phase: on a feasible face, stop at a KKT point or admit the
        # worst dual violator.
        outer = solved & feasible
        q = live[outer]
        w[q] = np.where(on_face[outer], np.maximum(wf[outer], 0.0), 0.0)
        grad = 2.0 * (np.matmul(G[q], w[q][:, :, None])[:, :, 0] - b[q])
        inactive = ~on_face[outer]
        mu = np.where(inactive, grad - nu[outer][:, None], np.inf)
        tol = 1e-9 * (1.0 + np.abs(grad).max(axis=1))
        done = ~inactive.any(axis=1) | (mu.min(axis=1) >= -tol)
        for j in q[done]:
            out[j] = w[j] / w[j].sum()
        go = q[~done]
        free[go, np.argmin(mu[~done], axis=1)] = True
        face_solves[go] = 0
        dual_steps[go] += 1

        ended = np.zeros(m, dtype=bool)
        ended[live[~solved]] = True
        ended[stuck] = True
        ended[q[done]] = True
        ended[go[dual_steps[go] == max_dual_steps]] = True
        live = live[~ended[live]]
    return out


def _iteration_limits(n: int) -> tuple[int, int]:
    """For n candidates: the face solves in a row that may find no feasible
    point, and the dual steps in all."""
    return n + 2, 3 * n + 20


def _solve_faces(G: np.ndarray, b: np.ndarray, free: np.ndarray,
                 live: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Solve the equality-constrained problem on each live problem's face.

    KKT system for  min w'Gw - 2b'w  s.t.  sum(w) = 1  on the free coordinates.
    Returns the face weights (zero off the face), the sum-constraint
    multipliers nu, with the sign convention  2(Gw - b)_i = nu  on free
    coordinates, and whether each system could be solved.
    """
    size = free[live].sum(axis=1)
    wf = np.zeros((live.size, b.shape[1]))
    nu = np.zeros(live.size)
    solved = np.ones(live.size, dtype=bool)
    for k in np.unique(size).tolist():
        pos = np.flatnonzero(size == k)
        sel = live[pos]
        idx = np.nonzero(free[sel])[1].reshape(sel.size, k)
        kkt = np.zeros((sel.size, k + 1, k + 1))
        kkt[:, :k, :k] = 2.0 * G[sel[:, None, None], idx[:, :, None], idx[:, None, :]]
        kkt[:, :k, k] = -1.0
        kkt[:, k, :k] = 1.0
        rhs = np.ones((sel.size, k + 1))
        rhs[:, :k] = 2.0 * b[sel[:, None], idx]
        try:
            sol = np.linalg.solve(kkt, rhs[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            # One singular system fails the whole stack: solve each alone.
            sol = np.zeros_like(rhs)
            for i in range(sel.size):
                try:
                    sol[i] = np.linalg.solve(kkt[i], rhs[i])
                except np.linalg.LinAlgError:
                    try:
                        sol[i] = np.linalg.lstsq(kkt[i], rhs[i], rcond=None)[0]
                    except np.linalg.LinAlgError:
                        solved[pos[i]] = False
        wf[pos[:, None], idx] = sol[:, :k]
        nu[pos] = sol[:, k]
    return wf, nu, solved


def residuals(target_x: np.ndarray, candidates: Sequence[np.ndarray],
              weights: np.ndarray, local_scale: float) -> tuple[float, float]:
    """Reconstruction error r and its locally normalized form rho = r / s.

    When the local scale is zero (all candidates coincide with the target)
    rho is defined as 0 if r is also zero, and an error otherwise.
    """
    target_x = np.asarray(target_x, dtype=float)
    A = np.column_stack([np.asarray(c, dtype=float) for c in candidates])
    r = _residual(A, target_x, np.asarray(weights, dtype=float))
    return r, _normalized(r, local_scale)


def _residual(A: np.ndarray, y: np.ndarray, w: np.ndarray) -> float:
    """||y - A w|| for C-contiguous candidate columns ``A``."""
    return float(np.linalg.norm(y - A @ w))


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
    """Feature vectors by row number, with their Gram matrix.

    ``rows[i]`` is the feature vector of ``ids[i]``: the caller's array itself
    when it is already contiguous float64, so a store adds no copy of the
    features, and the caller must not modify it while the store is in use.
    ``gram`` holds every inner product of two rows and ``sq_norms`` its
    diagonal. Together they give every pairwise squared distance to within
    GRAM_BAND, which :func:`assess_rows` uses to screen candidates;
    ``id_rank`` is each id's position in sorted order, which breaks distance
    ties. Rows are finite and of one length, no squared distance between
    them overflows, and a store is not modified after it is built.
    """

    def __init__(self, ids: Sequence[str], rows: Sequence[np.ndarray], gram: np.ndarray):
        self.ids = tuple(ids)
        self.rows = tuple(rows)
        self.gram = gram
        self.sq_norms = np.diagonal(gram).copy()
        # Every squared distance is at most 4 * max(sq_norms).
        if not np.isfinite(4.0 * self.sq_norms.max()):
            raise ComposerError("feature vectors too long: squared distances overflow")
        self.id_rank = np.empty(len(self.ids), dtype=int)
        self.id_rank[sorted(range(len(self.ids)), key=self.ids.__getitem__)] = \
            np.arange(len(self.ids))

    @classmethod
    def from_features(cls, features: Mapping[str, np.ndarray],
                      ids: Sequence[str]) -> "FeatureStore":
        """The store of ``features[i]`` for each of ``ids``, in that order."""
        rows = _feature_rows(features, ids, None)
        return cls(ids, rows, _inner_products(rows, rows))

    def extended(self, extra: Mapping[str, np.ndarray]) -> "FeatureStore":
        """A store with ``extra``'s rows appended; the Gram block of the
        existing rows is reused, so the cost is O(k * n * length)."""
        if not extra:
            return self
        clash = sorted(set(extra) & set(self.ids))
        if clash:
            raise ValueError(f"ids already in the feature store: {clash[:5]}")
        new_ids = tuple(extra)
        rows = _feature_rows(extra, new_ids, self.rows[0].size)
        n, k = len(self.ids), len(new_ids)
        gram = np.empty((n + k, n + k))
        gram[:n, :n] = self.gram
        gram[n:, :n] = _inner_products(rows, self.rows)
        gram[:n, n:] = gram[n:, :n].T
        gram[n:, n:] = _inner_products(rows, rows)
        return FeatureStore(self.ids + new_ids, self.rows + rows, gram)


# Inner products are summed over this many stacked row elements at a time,
# so that no copy of all the rows is ever made. Their order of summation is
# free: the Gram matrix only screens distances, within GRAM_BAND.
GRAM_CHUNK_VALUES = 1 << 17


def _inner_products(left: Sequence[np.ndarray], right: Sequence[np.ndarray]) -> np.ndarray:
    """The matrix of ``left[i] @ right[j]``, summed over column chunks."""
    out = np.zeros((len(left), len(right)))
    step = max(1, GRAM_CHUNK_VALUES // max(len(left), len(right)))
    for c in range(0, left[0].size, step):
        a = np.stack([row[c:c + step] for row in left])
        b = a if right is left else np.stack([row[c:c + step] for row in right])
        out += a @ b.T
    return out


def _feature_rows(features: Mapping[str, np.ndarray], ids: Sequence[str],
                  width: int | None) -> tuple[np.ndarray, ...]:
    rows = tuple(np.ascontiguousarray(features[i], dtype=float) for i in ids)
    if not rows:
        raise EmptyPoolError("feature store needs at least one row")
    width = rows[0].size if width is None else width
    for i, row in zip(ids, rows):
        if row.shape != (width,):
            raise DimensionError(width, row.size)
        if not np.all(np.isfinite(row)):
            raise ComposerError(f"feature vector of {i!r} has non-finite values")
    return rows


def _select_block(store: FeatureStore, targets: np.ndarray,
                  cfg: ComposerConfig) -> list[tuple[np.ndarray, np.ndarray, float]]:
    """:func:`select_candidates` for each row of ``targets`` against every
    other row: (candidate rows, their distances, local scale) per target.

    Each distance is bracketed from the Gram matrix, for all targets at once;
    an exact norm is taken only for rows that could be a middle value of the
    median or could make the kept set, so scale, candidates and distances
    equal select_candidates'.
    """
    n = len(store.ids)
    if n < 2:
        raise EmptyPoolError("candidate pool is empty")
    # select_candidates' formulas, worked in place so that a block holds few
    # (block, n) arrays.
    sq = store.sq_norms
    band = sq[targets][:, None] + sq
    hi = store.gram[targets]
    hi *= 2.0
    np.subtract(band, hi, out=hi)  # squared distance
    band *= GRAM_BAND
    lo = hi - band
    hi += band
    del band
    for bound in (lo, hi):
        np.maximum(bound, 0.0, out=bound)
        np.sqrt(bound, out=bound)
        # A target is not in its own pool: an infinite bracket is never a
        # middle value, never below a bound and never within the radius.
        bound[np.arange(targets.size), targets] = np.inf
    dist = np.zeros(lo.shape)
    known = np.zeros(lo.shape, dtype=bool)

    def refine(r: int, cols: np.ndarray) -> None:
        # Row-wise sums add each row alike however many rows there are, so
        # these are select_candidates' distances bit for bit.
        if cols.size:
            dist[r, cols] = _row_distances(np.stack([store.rows[j] for j in cols]),
                                           store.rows[targets[r]])
            known[r, cols] = True

    # The median is the mean of order statistics k1..k2 of the n-1 others
    # (k1 == k2 for an odd count). Rows whose interval lies wholly below the
    # k1-th lower bound precede them, rows wholly above the k2-th upper bound
    # follow them.
    k1, k2 = (n - 2) // 2, (n - 1) // 2
    floor = np.partition(lo, k1, axis=1)[:, k1, None]
    ceiling = np.partition(hi, k2, axis=1)[:, k2, None]
    middle = (lo <= ceiling) & (hi >= floor)
    below = np.count_nonzero(hi < floor, axis=1)
    scale = np.empty(targets.size)
    for r in range(targets.size):
        cols = np.flatnonzero(middle[r])
        refine(r, cols)
        window = np.sort(dist[r, cols])[k1 - below[r]:k2 - below[r] + 1]
        # np.median of the one or two middle values, as select_candidates takes it.
        scale[r] = (window[0] + window[-1]) / 2

    # A row can be kept only if it may lie within the radius and fewer than
    # max_candidates rows certainly lie within the radius and before it.
    cap = cfg.max_candidates
    radius = cfg.radius_factor * scale
    limit = radius.copy()
    if cap < n:
        inside = hi <= radius[:, None]
        nth = np.partition(np.where(inside, hi, np.inf), cap - 1, axis=1)[:, cap - 1]
        full = np.count_nonzero(inside, axis=1) >= cap
        limit[full] = np.minimum(radius[full], nth[full])
    out = []
    for r in range(targets.size):
        refine(r, np.flatnonzero((lo[r] <= limit[r]) & ~known[r]))
        cols = np.flatnonzero(known[r] & (dist[r] <= radius[r]))
        cols = cols[np.lexsort((store.id_rank[cols], dist[r, cols]))[:cap]]
        out.append((cols, dist[r, cols], float(scale[r])))
    return out


# Targets that assess_rows takes at once. The screening arrays of a block are
# (block, rows in the store) and its solver stacks (block, k, k); a larger
# block saves little more per-call overhead and costs memory.
ASSESS_BLOCK = 64


def assess_rows(store: FeatureStore, targets: Sequence[int],
                pool_effects: Mapping[str, float] | None, cfg: ComposerConfig,
                memo: dict | None = None) -> Iterator[Composition]:
    """:func:`assess` of each row in ``targets`` against every other row of ``store``.

    The results equal ``assess`` on the pool of every other row, byte for
    byte. They are yielded in the order of ``targets``, ASSESS_BLOCK targets
    at a time, so a caller that keeps only a summary never holds a whole
    pass of them. ``memo`` maps (t, candidate rows) to (weights, status, r)
    and skips the solve when a target's candidates are unchanged; it is valid
    only across a store and the stores :meth:`FeatureStore.extended` makes
    from it, which keep every existing row where it is.
    """
    targets = np.asarray(targets, dtype=int).reshape(-1)
    for start in range(0, targets.size, ASSESS_BLOCK):
        yield from _assess_block(store, targets[start:start + ASSESS_BLOCK],
                                 pool_effects, cfg, memo)


def _assess_block(store: FeatureStore, targets: np.ndarray,
                  pool_effects: Mapping[str, float] | None, cfg: ComposerConfig,
                  memo: dict | None) -> list[Composition]:
    picks = _select_block(store, targets, cfg)
    keys = [(int(t), tuple(cols.tolist())) for t, (cols, _, _) in zip(targets, picks)]
    found = {} if memo is None else {k: memo[k] for k in keys if k in memo}
    todo = [r for r, key in enumerate(keys) if key not in found]

    def columns(r: int) -> np.ndarray:
        # As solve_weights and residuals gather them, once for the normal
        # equations and again for the residual, so that a block never holds
        # every target's columns at once.
        return np.column_stack([store.rows[j] for j in picks[r][0]])

    by_size: dict[int, list[int]] = {}
    for r in todo:
        by_size.setdefault(picks[r][0].size, []).append(r)
    for n, rows in by_size.items():
        if n == 0:
            raise EmptyPoolError("need at least one candidate")
        G, b = np.empty((len(rows), n, n)), np.empty((len(rows), n))
        for i, r in enumerate(rows):
            _normal_equations(columns(r), store.rows[targets[r]], cfg.ridge, G[i], b[i])
        for r, (w, status) in zip(rows, _solve_stack(G, b)):
            found[keys[r]] = (w, status,
                              _residual(columns(r), store.rows[targets[r]], w))
            if memo is not None:
                memo[keys[r]] = found[keys[r]]
    comps = []
    for key, (cols, dists, scale) in zip(keys, picks):
        w, status, r = found[key]
        nb = Neighborhood(target_id=store.ids[key[0]],
                          candidate_ids=tuple(store.ids[j] for j in key[1]),
                          distances=tuple(dists.tolist()), local_scale=scale)
        comps.append(_composition(nb, w, status, r, _normalized(r, scale),
                                  pool_effects, cfg))
    return comps
