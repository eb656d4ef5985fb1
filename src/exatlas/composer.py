"""Local neighborhoods, simplex-constrained ridge reconstruction, and effect composition.

A target feature vector is reconstructed as a convex combination of nearby
source vectors. The reconstruction residual, normalized by the median distance
to the full source pool, gates whether the target counts as composable; the
same weights then average the sources' observed effects into a prediction.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Any, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from . import forks
from .archive import Experiment

OPTIMAL = "optimal"
FALLBACK_UNIFORM = "fallback-uniform"

WEIGHT_SUM_TOL = 1e-6
_ZERO_RESIDUAL_TOL = 1e-12
# A squared distance read off the Gram matrix is trusted to within this
# fraction of ||x_j||^2 + ||x_t||^2. Its rounding error, and that of the exact
# form, is a small multiple of (feature length) * 2**-53 of that sum: about
# 1e-12 at length 2304, far inside the band. Where products are subnormal the
# error is absolute instead: at most 2**-1075 a rounding, about 8 roundings per
# feature element in all. SUBNORMAL_BAND per element covers that twice over,
# and adds nothing to a band of normal size.
GRAM_BAND = 1e-9
SUBNORMAL_BAND = 8 * float(np.finfo(float).smallest_subnormal)


class ComposerError(Exception):
    """A composition that cannot be worked out: an empty pool, a length mismatch, ..."""


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
        for name in ("radius_factor", "ridge", "lambda_"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
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


# Exact distances are taken this many stacked rows at a time.
PAIR_CHUNK = 32


def _pair_distances(store: "FeatureStore", targets: np.ndarray,
                    cols: np.ndarray) -> np.ndarray:
    """The exact distance from row ``targets[i]`` of ``store`` to row ``cols[i]``.

    Each is computed as np.linalg.norm(x_j - x_t) computes it. Row-wise sums
    add each row alike however many rows are stacked, so a distance has the
    same bits in any call.
    """
    out = np.empty(cols.size)
    for a in range(0, cols.size, PAIR_CHUNK):
        block = store.take(cols[a:a + PAIR_CHUNK])
        block -= store.matrix[targets[a:a + PAIR_CHUNK]]
        block *= block
        out[a:a + len(block)] = np.sqrt(np.add.reduce(block, axis=1))
    return out


def solve_weights(target_x: np.ndarray, candidates: Sequence[np.ndarray],
                  ridge: float) -> tuple[np.ndarray, str]:
    """Minimize ||x_t - sum_j w_j x_j||^2 + ridge*||w||^2 over the probability simplex.

    Returns (weights, status). Solver failure is not an error: it falls back
    to uniform weights over the candidates with status "fallback-uniform".
    """
    if not candidates:
        raise ComposerError("need at least one candidate")
    target_x = np.asarray(target_x, dtype=float)
    A = np.column_stack([np.asarray(c, dtype=float) for c in candidates])
    if A.shape[0] != target_x.shape[0]:
        raise ComposerError(f"dimension mismatch: target has length {target_x.shape[0]}, "
                            f"candidate has length {A.shape[0]}")
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
    # A ridge near the largest float overflows 2G: its faces go unsolved and
    # its weights fall back to uniform, which is also the limit of the
    # minimizer as the ridge grows.
    with np.errstate(over="ignore"):
        solutions = _active_set_simplex(G, b)
    for w in solutions:
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
            total = w[j].sum()
            if 0.0 < total < np.inf:
                out[j] = w[j] / total
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
    for k in np.flatnonzero(np.bincount(size)).tolist():
        pos = np.flatnonzero(size == k)
        sel = live[pos]
        idx = np.nonzero(free[sel])[1].reshape(sel.size, k)
        kkt = np.zeros((sel.size, k + 1, k + 1))
        kkt[:, :k, :k] = 2.0 * G[sel[:, None, None], idx[:, :, None], idx[:, None, :]]
        kkt[:, :k, k] = -1.0
        kkt[:, k, :k] = 1.0
        rhs = np.ones((sel.size, k + 1))
        rhs[:, :k] = 2.0 * b[sel[:, None], idx]
        # A system that overflowed is not solved; LAPACK is not given it.
        finite = np.isfinite(kkt).all(axis=(1, 2)) & np.isfinite(rhs).all(axis=1)
        if not finite.all():
            solved[pos[~finite]] = False
            pos, idx, kkt, rhs = pos[finite], idx[finite], kkt[finite], rhs[finite]
            sel = live[pos]
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


def _residual(A: np.ndarray, y: np.ndarray, w: np.ndarray) -> float:
    """||y - A w|| for C-contiguous candidate columns ``A``."""
    return float(np.linalg.norm(y - A @ w))


def _normalized(r: float, local_scale: float) -> float:
    if local_scale > 0:
        return r / local_scale
    if r <= _ZERO_RESIDUAL_TOL:
        return 0.0
    raise ComposerError(f"local scale is 0 but the residual is {r:.3g}")


def compose_effect(weights: Mapping[str, float],
                   effects: Mapping[str, float]) -> float:
    """Weighted sum of observed effects under the composition weights."""
    for k in weights:
        if k not in effects:
            raise ComposerError(f"no observed effect for experiment {k!r}")
    return math.fsum(weights[k] * effects[k] for k in weights)


def assess(target: Experiment, target_x: np.ndarray,
           pool_features: Mapping[str, np.ndarray],
           pool_effects: Mapping[str, float] | None,
           cfg: ComposerConfig) -> Composition:
    """Full pipeline: select candidates, solve weights, gate on the residual.

    Candidates are the pool rows within ``radius_factor`` times the median
    distance to the whole pool, the nearest ``max_candidates`` of them, with
    distance ties broken by id. The composed effect is computed whenever
    every positive-weight candidate has a known effect, whether or not the
    target passes the gate; callers that admit effect-free hypothetical
    candidates get ``composed_effect=None``. This is :func:`assess_rows` for
    one target, on a store of the target (row 0, its one target) and the pool.
    """
    if target.id in pool_features:
        raise ValueError(f"pool must exclude the target id {target.id!r}")
    store = FeatureStore.from_features({target.id: target_x, **pool_features},
                                       (target.id, *pool_features), [0])
    return next(assess_rows(store, pool_effects, cfg))


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


class Features(Mapping[str, np.ndarray]):
    """Feature vectors as the rows of one C-contiguous float64 ``matrix``, row
    k that of ``ids[k]``: a read-only mapping of each id to a view of its row,
    iterated in row order, whose index of rows by id is built on first use."""

    def __init__(self, ids: Sequence[str], matrix: np.ndarray):
        self.ids, self.matrix = tuple(ids), np.ascontiguousarray(matrix, dtype=float)

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self) -> Iterator[str]:
        return iter(self.ids)

    def __getitem__(self, key: str) -> np.ndarray:
        return self.matrix[self.rows[key]]

    @functools.cached_property
    def rows(self) -> dict[str, int]:
        return dict(zip(self.ids, range(len(self.ids))))


class FeatureStore:
    """Feature vectors by row number, with the Gram rows of the targets.

    Row i of the C-contiguous float64 ``matrix`` is the feature vector of
    ``ids[i]``. It is the caller's matrix itself when the vectors given are
    :class:`Features` whose ids begin with ``ids``, in order, else a stack of
    them (always for a plain mapping); the caller must not modify it while
    the store is in use. Rows that :meth:`extended` appends follow, in
    ``extra``. The ``targets`` are the rows of ``matrix`` that a pass
    assesses, in its order: ``gram[k]`` holds row ``targets[k]``'s inner
    products with every row, ``sq_norms`` each row's with itself. They
    bracket every distance from a target, within GRAM_BAND (and
    SUBNORMAL_BAND), and :func:`assess_rows` decides from the brackets alone
    all it can: at N=360 it takes about one exact norm a target.
    ``id_rank`` is each id's position in sorted order, which breaks distance
    ties. Rows are finite and of one length, no squared distance between
    them overflows, and a store is not modified after it is built but for
    ``memo``, its own record of what :func:`gate_rows` has solved on it.
    """

    def __init__(self, ids: Sequence[str], matrix: np.ndarray, targets: Sequence[int],
                 gram: np.ndarray, extra: np.ndarray | None = None):
        self.ids = tuple(ids)
        self.matrix = matrix
        self.extra = matrix[:0] if extra is None else extra
        self.targets = np.asarray(targets, dtype=int)
        self.gram = gram
        self.memo: dict = {}
        with np.errstate(over="ignore", invalid="ignore"):
            self.sq_norms = np.concatenate([np.einsum("ij,ij->i", m, m)
                                            for m in (matrix, self.extra)])
        # Every squared distance is at most 4 * max(sq_norms).
        if not self.sq_norms.max() <= np.finfo(float).max / 4:
            raise ComposerError("feature vectors too long: squared distances overflow")
        self.id_rank = np.empty(len(self.ids), dtype=int)
        self.id_rank[sorted(range(len(self.ids)), key=self.ids.__getitem__)] = \
            np.arange(len(self.ids))

    @classmethod
    def from_features(cls, features: Mapping[str, np.ndarray], ids: Sequence[str],
                      targets: Sequence[int] | None = None) -> "FeatureStore":
        """The store of ``features[i]`` for each of ``ids``, in that order,
        whose targets are the rows ``targets``, in order (by default all)."""
        missing = [i for i in ids if i not in features]
        if missing:
            raise ComposerError(f"features missing for ids: {missing[:5]}")
        matrix = _matrix_of(features, ids, None)
        targets = np.arange(len(ids)) if targets is None else np.asarray(targets, dtype=int)
        return cls(ids, matrix, targets, _inner_products(matrix, targets, matrix))

    def extended(self, extra: Mapping[str, np.ndarray]) -> "FeatureStore":
        """A store with ``extra``'s rows appended, which are not targets: the
        targets' Gram rows gain the new rows' columns, one product of the
        targets' rows and the k new ones, so the cost is O(targets * k *
        length) and ``matrix`` is neither copied nor restacked. Every existing
        row keeps its index, so the new store starts from a copy of this
        one's ``memo``, which holds rows by number: two stores extended from
        one never share entries."""
        if not extra:
            return self
        clash = sorted(set(extra) & set(self.ids))
        if clash:
            raise ValueError(f"ids already in the feature store: {clash[:5]}")
        new_ids = tuple(extra)
        new = _matrix_of(extra, new_ids, self.matrix.shape[1])
        gram = np.hstack((self.gram, _inner_products(self.matrix, self.targets, new)))
        store = FeatureStore(self.ids + new_ids, self.matrix, self.targets, gram,
                             np.concatenate((self.extra, new)))
        store.memo = dict(self.memo)
        return store

    def take(self, rows: np.ndarray) -> np.ndarray:
        """The feature vectors of ``rows`` (those past ``matrix`` from ``extra``),
        stacked in a new C-contiguous array."""
        out = self.matrix[np.minimum(rows, len(self.matrix) - 1)]
        beyond = rows >= len(self.matrix)
        out[beyond] = self.extra[rows[beyond] - len(self.matrix)]
        return out


def _inner_products(matrix: np.ndarray, rows: np.ndarray, right: np.ndarray) -> np.ndarray:
    """The matrix of ``matrix[rows[i]] @ right[j]``, with no copy of ``matrix``
    when ``rows`` are all of its rows in order. Its order of summation is
    free: the Gram rows only screen distances, within GRAM_BAND. A product
    that overflows is left infinite without a warning: the store rejects
    rows whose squared norms overflow with one error."""
    left = matrix if np.array_equal(rows, np.arange(len(matrix))) else matrix[rows]
    with np.errstate(over="ignore", invalid="ignore"):
        return left @ right.T


def _matrix_of(features: Mapping[str, np.ndarray], ids: Sequence[str],
               width: int | None) -> np.ndarray:
    """The feature vectors of ``ids`` as the rows of one C-contiguous float64
    matrix: a :class:`Features`' own whose first rows they are, else a stack."""
    if not ids:
        raise ComposerError("feature store needs at least one row")
    own = isinstance(features, Features) and features.ids[:len(ids)] == tuple(ids)
    rows = features.matrix[:len(ids)] if own else [np.asarray(features[i], float) for i in ids]
    width = rows[0].size if width is None else width
    for row in rows:
        if row.shape != (width,):
            raise ComposerError(f"dimension mismatch: target has length {width}, "
                                f"candidate has length {row.size}")
    matrix = np.asarray(rows)
    finite = np.isfinite(matrix).all(axis=1)
    if not finite.all():
        raise ComposerError(f"feature vector of {ids[int(np.argmin(finite))]!r} "
                            "has non-finite values")
    return matrix


def _select_block(store: FeatureStore, block: slice,
                  cfg: ComposerConfig) -> list[tuple[np.ndarray, float]]:
    """The candidates of :func:`assess` for each of ``store.targets[block]``
    against every other row: (candidate rows, local scale) per target.

    Each distance is bracketed from the Gram matrix, and every bracket holds
    the exact distance. An exact norm is taken only where the brackets cannot
    decide: for the rows that could be a middle value of the median, the
    rows that could be kept but straddle the radius, and the rows that could
    be kept whose brackets touch or overlap another's. So scale, candidates
    and their order equal those of a plain sort of the exact distances. A
    bracket narrows to its exact distance once that is taken, and no
    distance is taken twice in a call. All of it is worked for the whole
    block at once.
    """
    n = len(store.ids)
    if n < 2:
        raise ComposerError("candidate pool is empty")
    # ||x_j||^2 + ||x_t||^2 - 2 x_j.x_t and its band, worked in place so that
    # a block holds few (block, n) arrays.
    targets = store.targets[block]
    sq = store.sq_norms
    band = sq[targets][:, None] + sq
    hi = store.gram[block] * 2.0
    np.subtract(band, hi, out=hi)  # squared distance
    band *= GRAM_BAND
    band += SUBNORMAL_BAND * (store.matrix.shape[1] + 1)
    lo = hi - band
    hi += band
    del band
    for bound in (lo, hi):
        np.maximum(bound, 0.0, out=bound)
        np.sqrt(bound, out=bound)
        # A target is not in its own pool: an infinite bracket is never a
        # middle value, never below a bound and never within the radius.
        bound[np.arange(targets.size), targets] = np.inf
    known = np.zeros(lo.shape, dtype=bool)  # lo == hi == the exact distance

    def refine(r: np.ndarray, j: np.ndarray) -> None:
        take = ~known[r, j]
        r, j = r[take], j[take]
        lo[r, j] = hi[r, j] = _pair_distances(store, targets[r], j)
        known[r, j] = True

    def segments(r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # The number of pairs of each target, and where its pairs start in r.
        counts = np.bincount(r, minlength=targets.size)
        return counts, np.cumsum(counts) - counts

    # The median is the mean of order statistics k1..k2 of the n-1 others
    # (k1 == k2 for an odd count). Rows whose interval lies wholly below the
    # k1-th lower bound precede them, rows wholly above the k2-th upper bound
    # follow them.
    k1, k2 = (n - 2) // 2, (n - 1) // 2
    floor = np.partition(lo, k1, axis=1)[:, k1, None]
    ceiling = np.partition(hi, k2, axis=1)[:, k2, None]
    below = np.count_nonzero(hi < floor, axis=1)  # before the middle rows narrow
    r, j = np.nonzero((lo <= ceiling) & (hi >= floor))
    refine(r, j)
    middle = lo[r, j][np.lexsort((lo[r, j], r))]
    start = segments(r)[1] - below
    # The mean of the one or two middle values, as np.median takes it.
    scale = (middle[start + k1] + middle[start + k2]) / 2

    # A row can be kept only if it may lie within the radius and fewer than
    # max_candidates rows certainly lie within the radius and before it. Such
    # a row that straddles the radius is refined, so that each lies within it
    # or beyond it for certain.
    cap = cfg.max_candidates
    # Kept finite, below each target's own infinite bracket, where it overflows.
    with np.errstate(over="ignore"):
        radius = np.minimum(cfg.radius_factor * scale, np.finfo(float).max)[:, None]
    limit = radius.copy()
    if cap < n:
        inside = hi <= radius
        nth = np.partition(np.where(inside, hi, np.inf), cap - 1, axis=1)[:, cap - 1, None]
        full = np.count_nonzero(inside, axis=1) >= cap
        limit[full] = np.minimum(radius[full], nth[full])
    possible = lo <= limit
    refine(*np.nonzero(possible & (hi > radius)))
    r, j = np.nonzero(possible & (hi <= radius))

    # Sorted by (target, lower bound, id), a row whose lower bound is at most
    # the largest upper bound before it touches or overlaps an earlier bracket
    # of its target; it and the row before it are refined where not yet
    # known. Brackets only narrow, so afterwards no unrefined bracket meets
    # another, and the order by (bound, id) is the order by (exact distance, id).
    def by_bound(r: np.ndarray, j: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        order = np.lexsort((store.id_rank[j], lo[r, j], r))
        return r[order], j[order]

    r, j = by_bound(r, j)
    counts, start = segments(r)
    at = np.arange(r.size) - start[r]
    reach = np.full((targets.size, counts.max(initial=0) + 1), -np.inf)
    reach[r, at + 1] = hi[r, j]
    np.maximum.accumulate(reach, axis=1, out=reach)
    meets = lo[r, j] <= reach[r, at]
    meets[:-1] |= meets[1:]
    if np.any(meets & ~known[r, j]):
        refine(r[meets], j[meets])
        r, j = by_bound(r, j)
    return [(j[a:a + min(k, cap)], s)
            for a, k, s in zip(start.tolist(), counts.tolist(), scale.tolist())]


# Targets that assess_rows and gate_rows take at once. The screening arrays of
# a block are (block, rows in the store) and its solver stacks at most (block,
# k, k); a larger block saves little more per-call overhead and costs memory.
ASSESS_BLOCK = 64
# A block's problems of k candidates are solved max(1, SOLVE_STACK_VALUES // k**2)
# at a time, so that a stack of their G (and each of the solver's working
# stacks) holds about this many doubles at most, 32 MB.
SOLVE_STACK_VALUES = 1 << 22


def assess_rows(store: FeatureStore, pool_effects: Mapping[str, float] | None,
                cfg: ComposerConfig) -> Iterator[Composition]:
    """:func:`assess` of each of the store's ``targets`` against every other
    row of ``store``.

    A result does not depend on the order of the rows or on the other
    targets. Every residual is taken exactly, on the pipeline that
    :func:`gate_rows` runs to take only those its gate needs. Results are
    yielded in the store's order, ASSESS_BLOCK targets at a time. Where the
    pass is split across processes (see :func:`_pipeline`), the parent holds
    a child's range of rows from when it reads them until it has yielded
    them; otherwise a caller that keeps only a summary never holds more than
    a block of them.
    """
    for t, cols, scale, w, status, r in _pipeline(store, cfg, exact=True):
        nb = Neighborhood(target_id=store.ids[t],
                          candidate_ids=tuple(store.ids[j] for j in cols.tolist()),
                          local_scale=scale)
        yield _composition(nb, w, status, r, _normalized(r, scale), pool_effects, cfg)


class Gate(NamedTuple):
    """A target's candidate rows, ascending by (distance, id), its local
    scale, the candidates' weights, and whether it passes the gate rho <= lambda."""

    cols: np.ndarray
    scale: float
    weights: np.ndarray
    composable: bool


def gate_rows(store: FeatureStore, cfg: ComposerConfig) -> Iterator[Gate]:
    """The candidates, local scale, weights and gate decision of
    :func:`assess_rows` for each of the store's ``targets``, in their order,
    without the residuals.

    Both run one pipeline, which brackets each residual r from the normal
    equations of the solve. Here the exact r is taken only where the bracket
    cannot settle r / s <= lambda (or the local scale s is 0), so every
    decision equals ``assess_rows``'. A pass reads and adds to
    ``store.memo``, which maps (t, candidate rows) to (weights, solver
    status, lo, hi), a bracket of r that is a point once r is taken, and
    skips the solve where a target's candidates are those of an earlier
    pass on this store or on one it was extended from; a held bracket is
    decided again under the pass's scale. A residual depends on its target
    and candidates alone, so every decision is that of a fresh store.
    Selection is worked afresh on every pass.
    """
    for _, cols, scale, w, _, r in _pipeline(store, cfg, exact=False):
        yield Gate(cols, scale, w, _normalized(r, scale) <= cfg.lambda_)


def _columns(store: FeatureStore, cols: np.ndarray) -> np.ndarray:
    # The C-contiguous columns that solve_weights gathers, once for the normal
    # equations and again for a residual, so that a block never holds every
    # target's columns at once.
    return np.ascontiguousarray(store.take(cols).T)


def _pipeline(store: FeatureStore, cfg: ComposerConfig, exact: bool) -> Iterator[tuple]:
    """The rows of :func:`_block` for every block of the store's targets, in
    order, with the blocks split into contiguous ranges, one per process
    (:mod:`exatlas.forks`). The parent runs the first range itself while
    forked children run the others, each sending its rows and the memo
    entries it wrote. The parent yields every range's rows in order and
    merges a child's memo entries before its rows, so rows and the final
    ``store.memo`` are those of a serial pass: a block's rows depend on its
    targets alone, and no two blocks of a pass share a memo key. A range
    that does not arrive whole (a failed fork, a child that raised or was
    killed) is run in the parent, which raises any error where a serial
    pass would. Every child is killed and reaped however the pass ends."""
    blocks = [slice(start, start + ASSESS_BLOCK)
              for start in range(0, len(store.targets), ASSESS_BLOCK)]
    ranges = forks.split(blocks, forks.processes(len(blocks)))
    with forks.Children() as children:
        for part in ranges[1:]:
            children.fork(functools.partial(_child_blocks, store, part, cfg, exact))
        for block in ranges[0]:
            yield from _block(store, block, cfg, exact)
        for k, part in enumerate(ranges[1:]):
            sent = children.collect(k)
            if sent is None:
                for block in part:
                    yield from _block(store, block, cfg, exact)
            else:
                rows, memo = sent
                store.memo.update(memo)
                yield from rows


def _child_blocks(store: FeatureStore, blocks: list[slice], cfg: ComposerConfig,
                  exact: bool) -> tuple[tuple, tuple]:
    """What a child of :func:`_pipeline` sends: (rows, memo entries written)
    of ``blocks``, and no payload."""
    held = dict(store.memo)
    rows = [row for block in blocks for row in _block(store, block, cfg, exact)]
    return (rows, {k: v for k, v in store.memo.items() if held.get(k) is not v}), ()


def _block(store: FeatureStore, block: slice, cfg: ComposerConfig,
           exact: bool) -> list[tuple]:
    """(row, candidate rows, local scale, weights, solver status, r) for each
    of ``store.targets[block]``. r is the exact residual where ``exact`` is
    set; otherwise it is the upper end of a bracket of the residual that
    settles r / s <= lambda as the exact residual would. Solves go to the
    store's memo (see :func:`gate_rows`), or on an exact pass to a dict of
    the block's own. They are stacked by candidate count, within
    SOLVE_STACK_VALUES."""
    targets = store.targets[block]
    picks = _select_block(store, block, cfg)
    keys = [(t, tuple(cols.tolist())) for t, (cols, _) in zip(targets.tolist(), picks)]
    memo = {} if exact else store.memo
    by_size: dict[int, list[int]] = {}
    for r, key in enumerate(keys):
        if key not in memo:
            by_size.setdefault(len(key[1]), []).append(r)
    for n, same in by_size.items():
        if n == 0:
            raise ComposerError("need at least one candidate")
        # A problem's result does not depend on the stack it is solved in.
        per_stack = max(1, SOLVE_STACK_VALUES // (n * n))
        for first in range(0, len(same), per_stack):
            rows = same[first:first + per_stack]
            G, b = np.empty((len(rows), n, n)), np.empty((len(rows), n))
            for i, r in enumerate(rows):
                _normal_equations(_columns(store, picks[r][0]), store.matrix[targets[r]],
                                  cfg.ridge, G[i], b[i])
            solved = _solve_stack(G, b)
            w = np.stack([wr for wr, _ in solved])
            yy = store.sq_norms[targets[rows]]
            # r^2 = y'y - 2w'b + w'(G - ridge*I)w, with w'Gw taken as w'(Gw) so
            # that every sum has at most n or feature length terms. Each term errs
            # by a small multiple of (feature length + 2n) * 2**-53 of (||y|| +
            # sum_j w_j ||x_j||)^2 (w >= 0), the ridge on G's diagonal by 2**-53
            # of ridge, and so does the exact form _residual computes: about 1e-12
            # at length 2304 and n = 3000, far inside GRAM_BAND. Where products
            # are subnormal each rounding errs by at most 2**-1075 instead: about
            # 10 roundings per feature element and 3 per pair of candidates in
            # all, which SUBNORMAL_BAND per element and per pair covers. So
            # [lo, hi] holds the r that _residual computes.
            Gw = np.matmul(G, w[:, :, None])[:, :, 0]
            q = (yy - 2.0 * np.einsum("pi,pi->p", w, b)
                 + (np.einsum("pi,pi->p", w, Gw) - cfg.ridge * np.einsum("pi,pi->p", w, w)))
            cols = np.stack([picks[r][0] for r in rows])
            size = np.sqrt(yy) + np.einsum("pi,pi->p", w, np.sqrt(store.sq_norms[cols]))
            band = (GRAM_BAND * (size * size + cfg.ridge)
                    + SUBNORMAL_BAND * (store.matrix.shape[1] + n * n + 1))
            lo = np.sqrt(np.maximum(q - band, 0.0)).tolist()
            hi = np.sqrt(q + band).tolist()
            for i, r in enumerate(rows):
                memo[keys[r]] = (*solved[i], lo[i], hi[i])
    out = []
    for key, (cols, scale) in zip(keys, picks):
        w, status, lo, hi = memo[key]
        # Division is monotone, so r / s <= lambda is settled unless the
        # bracket's ends fall on either side of it.
        if exact or (lo < hi and (scale == 0.0 or hi / scale > cfg.lambda_ >= lo / scale)):
            lo = hi = _residual(_columns(store, cols), store.matrix[key[0]], w)
            memo[key] = (w, status, lo, hi)
        out.append((key[0], cols, scale, w, status, hi))
    return out
