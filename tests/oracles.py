"""Independent oracles used by the test suite.

These deliberately avoid the library's solver machinery: the simplex
minimizer below is a pure brute-force grid search plus pattern-search
refinement driven only by objective evaluations. The vector-file reader
and writer below use the standard library's ``json`` alone.
"""

from __future__ import annotations

import json
from itertools import combinations
from pathlib import Path

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


def reference_solve_weights(target_x, candidates, ridge, limits=None):
    """``solve_weights`` one problem at a time: the per-target active-set loop
    that the lockstep solver replaces, with the same tolerances, limits and
    fallbacks."""
    from exatlas.composer import FALLBACK_UNIFORM, OPTIMAL, WEIGHT_SUM_TOL, ComposerError

    if not candidates:
        raise ComposerError("need at least one candidate")
    target_x = np.asarray(target_x, dtype=float)
    A = np.column_stack([np.asarray(c, dtype=float) for c in candidates])
    if A.shape[0] != target_x.shape[0]:
        raise ComposerError(f"dimension mismatch: target has length {target_x.shape[0]}, "
                            f"candidate has length {A.shape[0]}")
    n = A.shape[1]
    if n == 1:
        return np.ones(1), OPTIMAL
    try:
        w = reference_active_set_simplex(A, target_x, ridge, limits)
        if not (np.all(np.isfinite(w)) and abs(w.sum() - 1.0) <= WEIGHT_SUM_TOL
                and w.min() >= -WEIGHT_SUM_TOL):
            raise ArithmeticError("solver returned an infeasible point")
    except (ArithmeticError, np.linalg.LinAlgError):
        return np.full(n, 1.0 / n), FALLBACK_UNIFORM
    w = np.maximum(w, 0.0)
    return w / w.sum(), OPTIMAL


def _reference_solve_on_face(G, b, free):
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


def reference_active_set_simplex(A, y, ridge, limits=None):
    """Primal active-set method for one problem; raises ArithmeticError on
    failure. ``limits`` overrides (n + 2, 3n + 20): the face solves in a row
    that may find no feasible point, and the dual steps in all."""
    n = A.shape[1]
    max_inner, max_outer = limits or (n + 2, 3 * n + 20)
    G = A.T @ A + ridge * np.eye(n)
    b = A.T @ y
    w = np.zeros(n)
    free = np.zeros(n, dtype=bool)
    free[int(np.argmin(np.diag(G) - 2.0 * b))] = True
    w[free] = 1.0
    nu = 0.0
    for _ in range(max_outer):
        for _ in range(max_inner):
            wf, nu = _reference_solve_on_face(G, b, free)
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


def select_candidates(target_id, target_x, pool, cfg):
    """The neighborhood of one target by a plain (distance, id) sort of its
    exact distances to every row of ``pool``: the candidates within
    ``radius_factor`` times the median distance, the nearest
    ``max_candidates`` of them."""
    from exatlas.composer import Neighborhood

    ids = list(pool)
    dists = np.linalg.norm(np.stack([pool[i] for i in ids]) - target_x, axis=1)
    local_scale = float(np.median(dists))
    radius = cfg.radius_factor * local_scale
    order = sorted(zip((float(d) for d in dists), ids))
    kept = [i for d, i in order if d <= radius][: cfg.max_candidates]
    return Neighborhood(target_id=target_id, candidate_ids=tuple(kept),
                        local_scale=local_scale)


def residuals(target_x, candidates, weights, local_scale):
    """The reconstruction error r = ||x_t - sum_j w_j x_j|| and rho = r / s,
    with the composer's rule for a zero local scale."""
    from exatlas.composer import _normalized

    r = float(np.linalg.norm(target_x - np.column_stack(candidates) @ weights))
    return r, _normalized(r, local_scale)


def reference_assess(target_id, features, pool_ids, effects, cfg, extra=None):
    """``assess`` over a freshly built pool dict, by :func:`select_candidates`,
    :func:`reference_solve_weights` and :func:`residuals`: the per-target
    path that the feature store and the lockstep solver replace."""
    from exatlas.composer import ComposerError, _composition

    pool = {i: features[i] for i in pool_ids if i != target_id}
    pool.update(extra or {})
    target_x = features[target_id]
    nb = select_candidates(target_id, target_x, pool, cfg)
    if not nb.candidate_ids:
        raise ComposerError(f"need at least one candidate: target {target_id!r} has no "
                            f"other row within {cfg.radius_factor} times its local scale")
    cand_vecs = [pool[c] for c in nb.candidate_ids]
    w, status = reference_solve_weights(target_x, cand_vecs, cfg.ridge)
    r, rho = residuals(target_x, cand_vecs, w, nb.local_scale)
    return _composition(nb, w, status, r, rho, effects, cfg)


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


def pass_ratio(store, cfg) -> float:
    """``isolated_ratio`` of one ``gate_rows`` pass over the store's targets."""
    from exatlas.atlas import isolated_ratio
    from exatlas.composer import gate_rows

    return isolated_ratio(list(gate_rows(store, cfg)))


def _serial(monkeypatch) -> None:
    """Run every pass in this process: the recorders below see only the calls
    made here, and a pass split across processes makes some in its children."""
    import exatlas.forks as forks_mod

    monkeypatch.setattr(forks_mod, "processes", lambda parts: 1)


def record_selected_targets(monkeypatch) -> list[list[int]]:
    """Record the targets the composer selects candidates for: the list grows
    by one list of target rows per call of ``_select_block``, so a pass over
    N targets shows as calls whose rows add up to N."""
    import exatlas.composer as composer_mod

    calls: list[list[int]] = []
    original = composer_mod._select_block

    def recording(store, block, cfg):
        calls.append(store.targets[block].tolist())
        return original(store, block, cfg)

    _serial(monkeypatch)
    monkeypatch.setattr(composer_mod, "_select_block", recording)
    return calls


def count_problems_solved(monkeypatch) -> dict:
    """Count the weight problems the composer solves, however it batches
    them: ``counts["n"]`` grows by one per target solved."""
    import exatlas.composer as composer_mod

    counts = {"n": 0}
    original = composer_mod._solve_stack

    def counting(G, b):
        counts["n"] += len(b)
        return original(G, b)

    _serial(monkeypatch)
    monkeypatch.setattr(composer_mod, "_solve_stack", counting)
    return counts


def record_exact_distances(monkeypatch) -> list[tuple[int, int]]:
    """Record the exact distances the feature store path takes: the list
    grows by one (target row, row) pair per distance."""
    import exatlas.composer as composer_mod

    pairs: list[tuple[int, int]] = []
    original = composer_mod._pair_distances

    def recording(store, targets, cols):
        pairs.extend(zip(targets.tolist(), cols.tolist()))
        return original(store, targets, cols)

    _serial(monkeypatch)
    monkeypatch.setattr(composer_mod, "_pair_distances", recording)
    return pairs


def record_exact_residuals(monkeypatch) -> list[np.ndarray]:
    """Record the exact residuals the composer takes: the list grows by the
    target's feature vector, a view of its row of the store's matrix, per
    residual ``||y - A w||``."""
    import exatlas.composer as composer_mod

    targets: list[np.ndarray] = []
    original = composer_mod._residual

    def recording(A, y, w):
        targets.append(y)
        return original(A, y, w)

    _serial(monkeypatch)
    monkeypatch.setattr(composer_mod, "_residual", recording)
    return targets


def reference_read_vector_file(path) -> dict[str, np.ndarray]:
    """``read_vector_file`` with every line decoded by ``json.loads`` into a
    dict of separate arrays: the same checks in the same order, worded the
    same way."""
    path = Path(path)
    with path.open("rb") as fh:
        return reference_parse_vector_lines(path, fh)


def reference_parse_vector_lines(path, lines, repeats=False) -> dict[str, np.ndarray]:
    """The reference reader on ``lines``, the binary lines of the file
    ``path``, each ending at ``b"\\n"`` and decoded from UTF-8 on its own; an
    id on a second line is an error unless ``repeats`` is set, when its last
    vector is kept."""
    from exatlas.representation import EmbeddingError

    vectors: dict[str, np.ndarray] = {}
    first_line: dict[str, int] = {}
    dim = None
    for line_no, raw in enumerate(lines, start=1):
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError as e:
            raise EmbeddingError(f"{path}:{line_no}: not UTF-8 text: {e.reason}") from None
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as e:
            raise EmbeddingError(f"{path}:{line_no}: invalid JSON: {e.msg}") from e
        except RecursionError:
            raise EmbeddingError(
                f"{path}:{line_no}: invalid JSON: nested too deeply") from None
        if not isinstance(rec, dict):
            raise EmbeddingError(f"{path}:{line_no}: expected a JSON object")
        for key in ("id", "values"):
            if key not in rec:
                raise EmbeddingError(f"{path}:{line_no}: missing field {key!r}")
        try:
            vec = np.asarray(rec["values"], dtype=float)
            if vec.ndim != 1:
                raise ValueError
        except (TypeError, ValueError):
            raise EmbeddingError(
                f"{path}:{line_no}: values must be a list of numbers") from None
        except OverflowError:
            raise EmbeddingError(f"{path}:{line_no}: non-finite value") from None
        if not np.all(np.isfinite(vec)):
            raise EmbeddingError(f"{path}:{line_no}: non-finite value")
        if vec.size == 0:
            raise EmbeddingError(f"{path}:{line_no}: values must not be empty")
        if dim is None:
            dim = vec.size
        elif vec.size != dim:
            raise EmbeddingError(
                f"{path}:{line_no}: dimension mismatch: expected {dim}, got {vec.size}")
        key = str(rec["id"])
        if key in first_line and not repeats:
            raise EmbeddingError(f"{path}:{line_no}: duplicate id {key!r} "
                                 f"(first on line {first_line[key]})")
        first_line.setdefault(key, line_no)
        vectors[key] = vec
    return vectors


def reference_write_vector_lines(fh, vectors) -> None:
    """``representation._write_vector_lines`` on ``json.dumps`` alone: the file
    format is whatever this writes."""
    for vec_id, vec in vectors.items():
        rec = {"id": vec_id, "values": np.asarray(vec, dtype=float).ravel().tolist()}
        fh.write(json.dumps(rec, ensure_ascii=False))
        fh.write("\n")
