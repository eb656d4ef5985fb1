"""The lockstep active-set solver against the one-problem reference.

``_solve_stack`` advances a stack of problems together, one face solve each
per step and one stacked linear solve per face size. Each problem must get
the weights and status it gets alone from ``reference_solve_weights``, bit
for bit, whatever else is in the stack and in whatever order.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from oracles import count_problems_solved, reference_assess, reference_solve_weights

import exatlas.composer as composer_mod
from exatlas.composer import (FALLBACK_UNIFORM, OPTIMAL, ComposerConfig, ComposerError,
                              FeatureStore, _normal_equations, _solve_stack, assess_rows,
                              gate_rows, solve_weights)


def stack(problems, ridge):
    """The (G, b) stack of (A, y) problems that share a candidate count."""
    n = problems[0][0].shape[1]
    G, b = np.empty((len(problems), n, n)), np.empty((len(problems), n))
    for i, (A, y) in enumerate(problems):
        _normal_equations(np.ascontiguousarray(A), y, ridge, G[i], b[i])
    return G, b


def assert_bit_equal(got, want):
    (w, status), (w_ref, status_ref) = got, want
    assert status == status_ref
    assert w.dtype == w_ref.dtype and w.tobytes() == w_ref.tobytes()


def random_problems(rng, n, count, d_range=(2, 12)):
    out = []
    for _ in range(count):
        d = int(rng.integers(*d_range))
        out.append((rng.standard_normal((d, n)), rng.standard_normal(d)))
    return out


def duplicate_column_problems(rng, n, count):
    """Repeated columns, for ridge = 0: a rank-deficient G."""
    out = []
    for _ in range(count):
        base = rng.standard_normal((4, max(1, n // 2)))
        A = base[:, rng.integers(0, base.shape[1], n)]
        out.append((A, A[:, 0] + 0.1 * rng.standard_normal(4)))
    return out


@pytest.mark.parametrize("n", [2, 3, 5, 8, 13, 30])
def test_stack_matches_reference(n):
    rng = np.random.default_rng(n)
    problems = random_problems(rng, n, 40, d_range=(max(2, n // 2), 3 * n + 2))
    for got, (A, y) in zip(_solve_stack(*stack(problems, 1e-2)), problems):
        assert_bit_equal(got, reference_solve_weights(y, list(A.T), 1e-2))


def test_solve_weights_is_the_one_problem_stack():
    rng = np.random.default_rng(1)
    for A, y in random_problems(rng, 6, 30):
        assert_bit_equal(solve_weights(y, list(A.T), 1e-2),
                         reference_solve_weights(y, list(A.T), 1e-2))


def test_batch_order_does_not_matter():
    rng = np.random.default_rng(2)
    problems = random_problems(rng, 9, 50) + duplicate_column_problems(rng, 9, 10)
    base = _solve_stack(*stack(problems, 1e-3))
    order = rng.permutation(len(problems))
    shuffled = _solve_stack(*stack([problems[k] for k in order], 1e-3))
    for k, got in zip(order, shuffled):
        assert_bit_equal(got, base[k])
    for k in range(len(problems)):  # and alone
        assert_bit_equal(_solve_stack(*stack([problems[k]], 1e-3))[0], base[k])


def test_zero_ridge_duplicate_columns():
    rng = np.random.default_rng(3)
    problems = duplicate_column_problems(rng, 6, 30) + random_problems(rng, 6, 10)
    got = _solve_stack(*stack(problems, 0.0))
    for g, (A, y) in zip(got, problems):
        assert_bit_equal(g, reference_solve_weights(y, list(A.T), 0.0))
    assert all(status == OPTIMAL for _, status in got)


@pytest.mark.parametrize("lstsq_fails", [False, True])
def test_singular_faces_as_alone(monkeypatch, lstsq_fails):
    """Every two-coordinate face made singular: the stacked solve fails, each
    system is solved alone and falls back to lstsq (or, when that fails too,
    the problem falls back to uniform weights), exactly as for one problem."""
    solve, lstsq = np.linalg.solve, np.linalg.lstsq
    calls = {"lstsq": 0}

    def singular_pairs(a, b):
        if a.ndim == 3 and a.shape[-1] == 3 or a.shape == (3, 3):
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(a, b)

    def counting_lstsq(*args, **kwargs):
        calls["lstsq"] += 1
        if lstsq_fails:
            raise np.linalg.LinAlgError("SVD did not converge")
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "solve", singular_pairs)
    monkeypatch.setattr(np.linalg, "lstsq", counting_lstsq)
    rng = np.random.default_rng(6)
    problems = random_problems(rng, 5, 40, d_range=(3, 15))
    got = _solve_stack(*stack(problems, 1e-2))
    assert calls["lstsq"] > 0
    for g, (A, y) in zip(got, problems):
        assert_bit_equal(g, reference_solve_weights(y, list(A.T), 1e-2))
    statuses = {status for _, status in got}
    assert FALLBACK_UNIFORM in statuses if lstsq_fails else statuses == {OPTIMAL}


def test_single_candidate_needs_no_solve(monkeypatch):
    def no_solve(G, b):
        raise AssertionError("one candidate needs no solve")

    monkeypatch.setattr(composer_mod, "_active_set_simplex", no_solve)
    got = _solve_stack(*stack([(np.array([[2.0], [1.0]]), np.array([0.0, 3.0]))] * 3, 5.0))
    for w, status in got:
        assert status == OPTIMAL and w.tolist() == [1.0]
    assert_bit_equal(solve_weights(np.zeros(2), [np.ones(2)], 0.0),
                     reference_solve_weights(np.zeros(2), [np.ones(2)], 0.0))


@pytest.mark.parametrize("limits", [(1, 100), (100, 1), (2, 2)])
def test_iteration_limits_fall_back_as_alone(monkeypatch, limits):
    """Forced limits: every problem that runs out falls back to uniform weights
    exactly when it does alone, and the others are untouched."""
    monkeypatch.setattr(composer_mod, "_iteration_limits", lambda n: limits)
    rng = np.random.default_rng(4)
    problems = random_problems(rng, 7, 60, d_range=(3, 20))
    got = _solve_stack(*stack(problems, 1e-2))
    for g, (A, y) in zip(got, problems):
        assert_bit_equal(g, reference_solve_weights(y, list(A.T), 1e-2, limits))
    assert any(status == FALLBACK_UNIFORM for _, status in got)


def test_mixed_candidate_counts_in_one_block(monkeypatch):
    # Uniform points and a tight radius: dense spots keep more candidates.
    rng = np.random.default_rng(5)
    features = {f"m{k:02d}": row for k, row in enumerate(rng.uniform(-1, 1, (40, 3)))}
    ids = tuple(features)
    cfg = ComposerConfig(radius_factor=0.6)
    monkeypatch.setattr(composer_mod, "ASSESS_BLOCK", len(ids))
    solved = count_problems_solved(monkeypatch)
    got = list(assess_rows(FeatureStore.from_features(features, ids), None, cfg))
    assert solved["n"] == len(ids)
    assert len({len(c.weights) for c in got}) >= 5
    for tid, comp in zip(ids, got):
        want = reference_assess(tid, features, ids, None, cfg)
        assert json.dumps(comp.to_record(), sort_keys=True) == \
            json.dumps(want.to_record(), sort_keys=True), tid


@pytest.mark.parametrize("budget", [1, 200])
def test_solve_stacks_split_by_budget(monkeypatch, budget):
    """A block's problems of n candidates are solved in stacks of at most
    max(1, SOLVE_STACK_VALUES // n**2), and every record and gate decision
    keeps its bytes."""
    rng = np.random.default_rng(5)
    features = {f"m{k:02d}": row for k, row in enumerate(rng.uniform(-1, 1, (40, 3)))}
    ids = tuple(features)
    cfg = ComposerConfig(radius_factor=0.6)
    monkeypatch.setattr(composer_mod, "ASSESS_BLOCK", len(ids))

    def outputs():
        # A fresh store each time: a gate pass on a store that one has run
        # on reads the solves held in its memo.
        store = FeatureStore.from_features(features, ids)
        return ([json.dumps(c.to_record(), sort_keys=True)
                 for c in assess_rows(store, None, cfg)],
                [(g.cols.tobytes(), g.scale, g.weights.tobytes(), g.composable)
                 for g in gate_rows(store, cfg)])

    want = outputs()
    stacks = []
    original = composer_mod._solve_stack

    def recording(G, b):
        stacks.append(G.shape[:2])
        return original(G, b)

    monkeypatch.setattr(composer_mod, "_solve_stack", recording)
    monkeypatch.setattr(composer_mod, "SOLVE_STACK_VALUES", budget)
    assert outputs() == want
    assert sum(m for m, _ in stacks) == 2 * len(ids)
    assert all(m <= max(1, budget // (n * n)) for m, n in stacks)
    assert len(stacks) > len(set(n for _, n in stacks))  # some size was split


# A block of 64 targets, each with every other row as a candidate; with no
# ridge each target's exact copy among them takes weight 1 in one face solve.
# One stack of the block's 64 normal-equation matrices would take 487 MiB.
_WIDE_POOL = """
import resource
import numpy as np
from exatlas.composer import ComposerConfig, FeatureStore, assess_rows

rows = np.random.default_rng(0).standard_normal((936, 8))
features = {f"w{k:04d}": row for k, row in enumerate(np.concatenate([rows[:64], rows]))}
store = FeatureStore.from_features(features, tuple(features), range(64))
with open("/proc/self/statm", encoding="ascii") as fh:
    size = int(fh.read().split()[0]) * resource.getpagesize()
hard = resource.getrlimit(resource.RLIMIT_AS)[1]
resource.setrlimit(resource.RLIMIT_AS, (size + (300 << 20), hard))
cfg = ComposerConfig(radius_factor=1000.0, max_candidates=100_000, ridge=0.0)
comps = list(assess_rows(store, None, cfg))
print(sum(len(c.weights) == 999 and c.composable for c in comps))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads /proc/self/statm; RLIMIT_AS binds on Linux")
def test_wide_pool_solves_within_an_address_space_limit():
    """The 64 targets of a block, each with 999 candidates, assessed with
    300 MiB of address space to spare: the solve stacks stay small enough."""
    src = str(Path(composer_mod.__file__).parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", _WIDE_POOL], capture_output=True,
                          text=True, encoding="utf-8", env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "64"


def test_target_without_candidates_fails_as_reference():
    """A radius below the nearest distance leaves no candidate: the error of
    the per-target path, naming the first such target and the radius factor,
    not a failed gather. The solver's own check keeps its bare message."""
    features = {"a": np.array([0.0, 0.0]), "b": np.array([1.0, 0.0]),
                "c": np.array([0.0, 5.0]), "d": np.array([9.0, 9.0])}
    ids = tuple(features)
    cfg = ComposerConfig(radius_factor=0.3)
    message = ("^need at least one candidate: target 'c' has no other row within 0.3 "
               "times its local scale$")
    with pytest.raises(ComposerError, match=message) as want:
        for tid in ids:
            reference_assess(tid, features, ids, None, cfg)
    with pytest.raises(ComposerError, match=message) as got:
        list(assess_rows(FeatureStore.from_features(features, ids), None, cfg))
    assert str(got.value) == str(want.value)
    with pytest.raises(ComposerError, match="^need at least one candidate$"):
        solve_weights(features["a"], [], cfg.ridge)


@pytest.mark.filterwarnings("error")
def test_zero_weight_sum_falls_back_without_a_warning():
    """Features near 1e38 can end the method at a point whose weights all
    round to 0: the problem falls back to uniform weights, as the reference
    does, without dividing by that zero sum."""
    y, candidates = np.array([1.5e38]), [np.array([5.7e16]), np.array([5.7e16])]
    got = solve_weights(y, candidates, 1e-2)
    assert got[1] == FALLBACK_UNIFORM
    with np.errstate(invalid="ignore"):
        assert_bit_equal(got, reference_solve_weights(y, candidates, 1e-2))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("ridge, want", [(1e308, FALLBACK_UNIFORM), (5e307, OPTIMAL)])
def test_ridge_near_float_max_solves_without_a_warning(capfd, ridge, want):
    """A ridge whose double overflows leaves no face system to solve: the
    problem falls back to uniform weights, the limit of the minimizer as the
    ridge grows, and LAPACK is never handed the overflowed system. Just below
    that, the solve succeeds at that limit."""
    rng = np.random.default_rng(3)
    candidates = list(rng.standard_normal((3, 4)))
    w, status = solve_weights(rng.standard_normal(4), candidates, ridge)
    assert status == want
    np.testing.assert_allclose(w, [1.0 / 3] * 3, rtol=1e-12)
    assert capfd.readouterr() == ("", "")
