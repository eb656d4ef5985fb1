from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exatlas.archive import Experiment
from exatlas.composer import (
    FALLBACK_UNIFORM,
    OPTIMAL,
    ComposerConfig,
    DegenerateScaleError,
    DimensionError,
    EmptyPoolError,
    MissingEffectError,
    assess,
    compose_effect,
    residuals,
    select_candidates,
    solve_weights,
)
from oracles import brute_force_simplex_min, random_reconstruction_instance, \
    reconstruction_objective


def exp(exp_id, effect=0.0):
    return Experiment(id=exp_id, treatment_text="t", outcome_text="o",
                      effect_size=effect)


class TestConfig:
    def test_defaults(self):
        cfg = ComposerConfig()
        assert cfg.radius_factor == 1.5
        assert cfg.max_candidates == 30
        assert cfg.ridge == pytest.approx(1e-2)
        assert cfg.lambda_ == pytest.approx(0.462)

    @pytest.mark.parametrize("kw", [
        {"radius_factor": 0.0}, {"max_candidates": 0},
        {"ridge": -1e-9}, {"lambda_": 0.0},
    ])
    def test_invalid_rejected(self, kw):
        with pytest.raises(ValueError):
            ComposerConfig(**kw)

    @pytest.mark.parametrize("name", ["radius_factor", "ridge", "lambda_"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be a finite number, got"):
            ComposerConfig(**{name: value})


def pool_at_distances(target, dists):
    """1-D pool placed exactly at the requested distances from the target."""
    return {f"p{i:02d}": np.array([target[0] + d]) for i, d in enumerate(dists)}


class TestSelectCandidates:
    def test_median_radius_hand_case(self, default_cfg):
        target = np.array([0.0])
        pool = pool_at_distances(target, [1.0, 2.0, 3.0, 10.0])
        nb = select_candidates("t", target, pool, default_cfg)
        # median 2.5, radius 3.75: the distance-10 point is excluded
        assert nb.local_scale == pytest.approx(2.5)
        assert nb.candidate_ids == ("p00", "p01", "p02")

    def test_cap_keeps_lexicographically_smallest_on_ties(self, default_cfg):
        target = np.zeros(2)
        pool = {f"id{i:02d}": np.array([1.0, 0.0]) for i in range(40)}
        nb = select_candidates("t", target, pool, default_cfg)
        assert len(nb.candidate_ids) == 30
        assert nb.candidate_ids == tuple(sorted(pool)[:30])

    def test_singleton_pool(self, default_cfg):
        target = np.zeros(3)
        pool = {"only": np.array([5.0, 0.0, 0.0])}
        nb = select_candidates("t", target, pool, default_cfg)
        assert nb.candidate_ids == ("only",)
        assert nb.local_scale == pytest.approx(5.0)

    def test_candidates_sorted_by_distance_then_id(self, default_cfg):
        target = np.array([0.0])
        pool = {"b": np.array([1.0]), "a": np.array([1.0]), "c": np.array([0.5])}
        nb = select_candidates("t", target, pool, default_cfg)
        assert nb.candidate_ids == ("c", "a", "b")

    def test_empty_pool_rejected(self, default_cfg):
        with pytest.raises(EmptyPoolError):
            select_candidates("t", np.zeros(2), {}, default_cfg)

    def test_pool_containing_target_rejected(self, default_cfg):
        with pytest.raises(ValueError):
            select_candidates("t", np.zeros(2), {"t": np.zeros(2)}, default_cfg)

    def test_local_scale_uses_full_pool_not_capped_set(self):
        cfg = ComposerConfig(max_candidates=2)
        target = np.array([0.0])
        pool = pool_at_distances(target, [1.0, 2.0, 3.0, 4.0, 100.0])
        nb = select_candidates("t", target, pool, cfg)
        assert len(nb.candidate_ids) == 2
        assert nb.local_scale == pytest.approx(3.0)  # median of all five


class TestSolveWeights:
    def test_symmetric_midpoint_gets_equal_weights(self):
        a = np.array([1.0, 0.0, 0.0])
        b = np.array([0.0, 1.0, 0.0])
        target = 0.5 * (a + b)
        w, status = solve_weights(target, [a, b], ridge=1e-2)
        assert status == OPTIMAL
        np.testing.assert_allclose(w, [0.5, 0.5], atol=1e-9)

    def test_single_candidate_gets_weight_one(self):
        w, status = solve_weights(np.array([3.0, 1.0]), [np.array([0.0, 0.0])],
                                  ridge=123.0)
        assert status == OPTIMAL
        np.testing.assert_array_equal(w, [1.0])

    def test_matches_brute_force_oracle_random_instance(self):
        rng = np.random.default_rng(42)
        A, y = random_reconstruction_instance(rng, d=6, n=3)
        w, status = solve_weights(y, list(A.T), ridge=1e-2)
        assert status == OPTIMAL
        obj_solver = float(reconstruction_objective(A, y, 1e-2, w)[0])
        _, obj_oracle = brute_force_simplex_min(A, y, ridge=1e-2)
        assert obj_solver <= obj_oracle + 1e-4

    def test_simplex_feasibility_random_instances(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            d = int(rng.integers(2, 10))
            n = int(rng.integers(1, 9))
            A, y = random_reconstruction_instance(rng, d, n)
            w, _ = solve_weights(y, list(A.T), ridge=1e-2)
            assert w.min() >= 0.0
            assert abs(w.sum() - 1.0) <= 1e-6

    def test_solver_failure_falls_back_to_uniform(self, monkeypatch):
        import exatlas.composer as composer_mod

        def boom(G, b):
            return [None] * len(b)  # every problem failed

        monkeypatch.setattr(composer_mod, "_active_set_simplex", boom)
        w, status = solve_weights(np.zeros(2), [np.ones(2), -np.ones(2)], 1e-2)
        assert status == FALLBACK_UNIFORM
        np.testing.assert_allclose(w, [0.5, 0.5])

    def test_programming_error_propagates(self, monkeypatch):
        import exatlas.composer as composer_mod

        def broken(G, b):
            raise TypeError("bug in the solver")

        monkeypatch.setattr(composer_mod, "_active_set_simplex", broken)
        with pytest.raises(TypeError, match="bug in the solver"):
            solve_weights(np.zeros(2), [np.ones(2), -np.ones(2)], 1e-2)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            solve_weights(np.zeros(3), [np.zeros(2)], 1e-2)

    def test_zero_ridge_still_solves(self):
        rng = np.random.default_rng(3)
        A, y = random_reconstruction_instance(rng, 4, 3)
        w, status = solve_weights(y, list(A.T), ridge=0.0)
        assert status == OPTIMAL
        assert abs(w.sum() - 1.0) <= 1e-6


class TestResiduals:
    def test_exact_reconstruction_is_zero(self):
        a = np.array([1.0, 0.0])
        b = np.array([0.0, 1.0])
        target = 0.5 * a + 0.5 * b
        r, rho = residuals(target, [a, b], np.array([0.5, 0.5]), local_scale=2.0)
        assert r == pytest.approx(0.0, abs=1e-15)
        assert rho == pytest.approx(0.0, abs=1e-15)

    def test_definition(self):
        # r = 0.8 against local scale 2.0 gives rho = 0.4
        target = np.array([0.8, 0.0])
        cand = np.array([0.0, 0.0])
        r, rho = residuals(target, [cand], np.array([1.0]), local_scale=2.0)
        assert r == pytest.approx(0.8)
        assert rho == pytest.approx(0.4)

    def test_matches_direct_recomputation(self):
        rng = np.random.default_rng(11)
        A, y = random_reconstruction_instance(rng, 8, 5)
        w, _ = solve_weights(y, list(A.T), ridge=1e-2)
        r, _ = residuals(y, list(A.T), w, local_scale=1.0)
        direct = float(np.linalg.norm(y - A @ w))
        assert abs(r - direct) <= 1e-9

    def test_degenerate_scale(self):
        target = np.array([1.0])
        coincident = np.array([1.0])
        r, rho = residuals(target, [coincident], np.array([1.0]), local_scale=0.0)
        assert (r, rho) == (0.0, 0.0)
        with pytest.raises(DegenerateScaleError):
            residuals(np.array([2.0]), [coincident], np.array([1.0]), local_scale=0.0)


class TestComposeEffect:
    def test_identity(self):
        assert compose_effect({"a": 1.0}, {"a": 2.3}) == pytest.approx(2.3)

    def test_cancellation(self):
        assert compose_effect({"a": 0.5, "b": 0.5},
                              {"a": 1.0, "b": -1.0}) == pytest.approx(0.0)

    def test_hand_arithmetic(self):
        got = compose_effect({"a": 0.2, "b": 0.3, "c": 0.5},
                             {"a": 1.0, "b": 2.0, "c": 3.0})
        assert got == pytest.approx(2.3)

    def test_missing_effect_names_id(self):
        with pytest.raises(MissingEffectError) as err:
            compose_effect({"a": 1.0}, {"b": 1.0})
        assert err.value.experiment_id == "a"

    @given(st.lists(st.tuples(st.floats(-5, 5), st.floats(-5, 5)),
                    min_size=1, max_size=6),
           st.floats(-3, 3), st.floats(-3, 3))
    @settings(max_examples=50)
    def test_linearity(self, pairs, a, b):
        ids = [f"e{i}" for i in range(len(pairs))]
        raw = np.abs(np.random.default_rng(0).standard_normal(len(pairs))) + 0.1
        w = dict(zip(ids, raw / raw.sum()))
        tau1 = {i: p[0] for i, p in zip(ids, pairs)}
        tau2 = {i: p[1] for i, p in zip(ids, pairs)}
        mixed = {i: a * tau1[i] + b * tau2[i] for i in ids}
        lhs = compose_effect(w, mixed)
        rhs = a * compose_effect(w, tau1) + b * compose_effect(w, tau2)
        assert lhs == pytest.approx(rhs, abs=1e-9)


class TestAssess:
    def setup_method(self):
        # Target is the exact midpoint of two of four pool points.
        self.a = np.array([1.0, 0.0, 0.0, 0.0])
        self.b = np.array([0.0, 1.0, 0.0, 0.0])
        self.pool = {
            "a": self.a,
            "b": self.b,
            "far1": np.array([0.0, 0.0, 10.0, 0.0]),
            "far2": np.array([0.0, 0.0, 0.0, 12.0]),
        }
        self.target_x = 0.5 * (self.a + self.b)
        self.effects = {"a": -1.0, "b": 1.0, "far1": 5.0, "far2": -5.0}

    def test_full_pipeline_composable(self):
        cfg = ComposerConfig()
        comp = assess(exp("t"), self.target_x, self.pool, self.effects, cfg)
        assert comp.composable
        assert comp.solver_status == OPTIMAL
        assert set(comp.weights) == {"a", "b"}  # far points outside the radius
        assert comp.composed_effect == pytest.approx(0.0, abs=1e-6)
        assert abs(sum(comp.weights.values()) - 1.0) <= 1e-6

    def test_threshold_gates_composability(self):
        comp_loose = assess(exp("t"), self.target_x, self.pool, self.effects,
                            ComposerConfig(lambda_=0.462))
        # rho is tiny here; force a failure with a target far outside the hull
        far_target = np.array([5.0, 5.0, 5.0, 5.0])
        comp_far = assess(exp("t"), far_target, self.pool, self.effects,
                          ComposerConfig(lambda_=0.462))
        assert comp_loose.composable is True
        assert comp_far.composable is False
        assert comp_far.composed_effect is not None  # still computed for diagnostics

    def test_monotone_gating_in_lambda(self):
        rng = np.random.default_rng(5)
        pool = {f"p{i}": rng.standard_normal(6) for i in range(8)}
        target_x = rng.standard_normal(6)
        rhos = {}
        for lam in (0.1, 0.3, 0.6, 1.0, 2.0):
            comp = assess(exp("t"), target_x, pool, None, ComposerConfig(lambda_=lam))
            rhos[lam] = (comp.normalized_residual, comp.composable)
        values = [v for v, _ in rhos.values()]
        assert max(values) == pytest.approx(min(values))  # lambda never moves rho
        flags = [c for _, c in rhos.items()]
        for (l1, (_, c1)) in rhos.items():
            for (l2, (_, c2)) in rhos.items():
                if l2 >= l1 and c1:
                    assert c2

    def test_weighted_average_example(self):
        # weights (0.25, 0.75) on effects (-1, +1) composes to 0.5
        assert compose_effect({"a": 0.25, "b": 0.75},
                              {"a": -1.0, "b": 1.0}) == pytest.approx(0.5)

    def test_geometry_only_pool_gives_none_effect(self):
        cfg = ComposerConfig()
        comp = assess(exp("t"), self.target_x, self.pool, None, cfg)
        assert comp.composed_effect is None

    def test_singleton_neighborhood_is_not_composable(self):
        pool = {"only": np.array([1.0, 0.0])}
        comp = assess(exp("t"), np.array([0.0, 0.0]), pool, {"only": 1.0},
                      ComposerConfig())
        assert comp.normalized_residual == pytest.approx(1.0)
        assert not comp.composable

    def test_to_record_keys(self):
        cfg = ComposerConfig()
        comp = assess(exp("t"), self.target_x, self.pool, self.effects, cfg)
        rec = comp.to_record()
        assert set(rec) == {"target_id", "weights", "r", "rho", "composed_effect",
                            "composable", "solver_status"}
