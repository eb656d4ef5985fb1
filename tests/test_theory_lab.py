from __future__ import annotations

import numpy as np
import pytest

from exatlas.theory_lab import (
    SyntheticWorld,
    TheoryLabError,
    bound_sweep,
    check_bound,
    sample_world,
)


def uniform_weights(world, target):
    others = [i for i in range(world.n_points) if i != target]
    return {i: 1.0 / len(others) for i in others}


class TestSampleWorld:
    def test_zero_curvature_gives_affine_surface(self):
        world = sample_world(seed=1, n=5, d=3, curvature_bound=0.0, noise_bound=0.0)
        assert np.all(world.curvature == 0.0)
        assert world.lipschitz_L == pytest.approx(float(np.linalg.norm(world.gradient)))
        # Affine check: mu(a) + mu(b) == 2 mu((a+b)/2)
        a, b = world.points[0], world.points[1]
        assert world.surface(a) + world.surface(b) == pytest.approx(
            2 * world.surface((a + b) / 2), abs=1e-12)

    def test_zero_noise_world(self):
        world = sample_world(seed=2, n=4, d=2, curvature_bound=1.0, noise_bound=0.0)
        assert np.all(world.noises == 0.0)

    def test_same_seed_reproduces_world(self):
        w1 = sample_world(seed=9, n=6, d=4, curvature_bound=0.5, noise_bound=0.05)
        w2 = sample_world(seed=9, n=6, d=4, curvature_bound=0.5, noise_bound=0.05)
        np.testing.assert_array_equal(w1.points, w2.points)
        np.testing.assert_array_equal(w1.noises, w2.noises)
        np.testing.assert_array_equal(w1.curvature, w2.curvature)

    def test_curvature_norm_scaled_exactly(self):
        world = sample_world(seed=3, n=4, d=5, curvature_bound=2.5, noise_bound=0.0)
        assert np.linalg.norm(world.curvature, ord=2) == pytest.approx(2.5, rel=1e-12)

    def test_points_inside_region(self):
        world = sample_world(seed=4, n=50, d=3, curvature_bound=1.0,
                             noise_bound=0.1, region_radius=2.0)
        assert np.linalg.norm(world.points, axis=1).max() <= 2.0 + 1e-12

    @pytest.mark.parametrize("kw", [
        {"n": 2}, {"d": 0}, {"curvature_bound": -1.0},
        {"noise_bound": -0.1}, {"region_radius": 0.0},
    ])
    def test_invalid_parameters(self, kw):
        args = dict(seed=0, n=5, d=3, curvature_bound=1.0, noise_bound=0.1,
                    region_radius=1.0)
        args.update(kw)
        with pytest.raises(ValueError):
            sample_world(**args)


class TestCheckBound:
    def test_affine_noiseless_exact_hull_point_has_zero_error(self):
        world = sample_world(seed=5, n=4, d=3, curvature_bound=0.0, noise_bound=0.0)
        # Place the target exactly at a convex combination of the others.
        alpha = {1: 0.2, 2: 0.5, 3: 0.3}
        m_t = sum(a * world.points[i] for i, a in alpha.items())
        points = world.points.copy()
        points[0] = m_t
        world = SyntheticWorld(
            latent_dim=world.latent_dim, points=points,
            intercept=world.intercept, gradient=world.gradient,
            curvature=world.curvature, lipschitz_L=world.lipschitz_L,
            hessian_H=world.hessian_H, noise_bound=world.noise_bound,
            noises=world.noises, region_radius=world.region_radius,
            seed=world.seed)
        report = check_bound(world, 0, alpha)
        assert report.realized_error == pytest.approx(0.0, abs=1e-12)
        assert report.bound == pytest.approx(0.0, abs=1e-10)
        assert report.holds

    def test_noiseless_outside_hull_error_within_smoothness_terms(self):
        world = sample_world(seed=6, n=6, d=4, curvature_bound=1.0, noise_bound=0.0)
        w = uniform_weights(world, 0)
        report = check_bound(world, 0, w)
        assert report.term_residual == 0.0
        assert report.realized_error <= (report.term_extrapolation
                                         + report.term_curvature + 1e-9)

    def test_bound_terms_match_direct_evaluation(self):
        # Independent recomputation of every term, straight from definitions.
        world = sample_world(seed=7, n=5, d=3, curvature_bound=2.0, noise_bound=0.05)
        w = {1: 0.25, 2: 0.25, 3: 0.25, 4: 0.25}
        report = check_bound(world, 0, w)
        mu = world.surface
        tau = [mu(world.points[i]) + world.noises[i] for i in range(5)]
        comp = sum(w[i] * tau[i] for i in w)
        assert report.realized_error == pytest.approx(abs(tau[0] - comp), abs=1e-12)
        m_bar = sum(w[i] * world.points[i] for i in w)
        assert report.term_extrapolation == pytest.approx(
            world.lipschitz_L * np.linalg.norm(world.points[0] - m_bar), abs=1e-12)
        curv = 0.5 * world.hessian_H * sum(
            w[i] * np.linalg.norm(world.points[i] - m_bar) ** 2 for i in w)
        assert report.term_curvature == pytest.approx(curv, abs=1e-12)

    def test_off_simplex_weights_rejected(self):
        world = sample_world(seed=8, n=4, d=2, curvature_bound=0.0, noise_bound=0.0)
        with pytest.raises(TheoryLabError, match=r"^weights sum to 1\.2, not 1$"):
            check_bound(world, 0, {1: 0.6, 2: 0.6})
        with pytest.raises(TheoryLabError, match="^weights must not include the target index$"):
            check_bound(world, 0, {0: 1.0})
        with pytest.raises(TheoryLabError, match="^negative weight beyond tolerance$"):
            check_bound(world, 0, {1: 1.5, 2: -0.5})

    def test_curvature_term_linear_in_H(self):
        reports = []
        for h in (1.0, 2.0, 4.0):
            world = sample_world(seed=11, n=5, d=3, curvature_bound=h,
                                 noise_bound=0.0)
            reports.append(check_bound(world, 0, uniform_weights(world, 0)))
        assert reports[1].term_curvature == pytest.approx(
            2 * reports[0].term_curvature, rel=1e-9)
        assert reports[2].term_curvature == pytest.approx(
            4 * reports[0].term_curvature, rel=1e-9)


class TestResidualFloor:
    def test_zero_noise_gives_zero_residual_term(self):
        world = sample_world(seed=12, n=4, d=2, curvature_bound=1.0,
                             noise_bound=0.0)
        w = uniform_weights(world, 0)
        report = check_bound(world, 0, w)
        assert report.term_residual == 0.0
        assert report.term_residual <= 2 * world.noise_bound + 1e-12

    def test_extreme_noises_reach_but_never_exceed_two_delta(self):
        world = sample_world(seed=13, n=3, d=2, curvature_bound=0.0,
                             noise_bound=0.1)
        # Force noises to opposite extremes and concentrate the weight.
        noises = np.array([0.1, -0.1, 0.0])
        world = SyntheticWorld(
            latent_dim=world.latent_dim, points=world.points,
            intercept=world.intercept, gradient=world.gradient,
            curvature=world.curvature, lipschitz_L=world.lipschitz_L,
            hessian_H=world.hessian_H, noise_bound=world.noise_bound,
            noises=noises, region_radius=world.region_radius, seed=world.seed)
        report = check_bound(world, 0, {1: 1.0, 2: 0.0})
        assert report.term_residual == pytest.approx(0.2)
        assert report.term_residual <= 2 * world.noise_bound + 1e-12

    def test_random_worlds_respect_floor(self):
        rng = np.random.default_rng(0)
        for seed in range(30):
            world = sample_world(seed=seed, n=8, d=4, curvature_bound=1.0,
                                 noise_bound=0.05)
            others = list(range(1, 8))
            alpha = rng.dirichlet(np.ones(len(others)))
            report = check_bound(world, 0, dict(zip(others, alpha)))
            assert report.term_residual <= 2 * world.noise_bound + 1e-12


class TestSweep:
    def test_sweep_has_expected_cells_and_holds_everywhere(self):
        rows = bound_sweep(triples_per_cell=3)
        assert len(rows) == 4 * 3 * 3 * 3
        assert all(r.report.holds for r in rows)
        assert all(r.residual_ok for r in rows)

    def test_sweep_deterministic_in_seed(self):
        r1 = bound_sweep(base_seed=5, triples_per_cell=2)
        r2 = bound_sweep(base_seed=5, triples_per_cell=2)
        assert [x.to_csv_row() for x in r1] == [x.to_csv_row() for x in r2]

    def test_csv_row_shape(self):
        row = bound_sweep(triples_per_cell=1)[0]
        assert len(row.to_csv_row()) == 9
