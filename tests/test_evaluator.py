from __future__ import annotations

from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exatlas.archive import Archive, Experiment
from exatlas.composer import ComposerConfig, Composition, Neighborhood
from exatlas.evaluator import (
    EvaluatorError,
    InsufficientDataError,
    TargetResult,
    average_ranks,
    build_report,
    calibrate_lambda,
    default_grid,
    loo_run,
    mae,
    mse,
    sign,
    sign_match,
    sign_match_rate,
    spearman,
)


def exp(exp_id, effect, text=None):
    text = text or exp_id
    return Experiment(id=exp_id, treatment_text=f"treat {text}",
                      outcome_text=f"out {text}", effect_size=effect)


def fake_result(target_id, obs, pred, rho, lam=0.462):
    """A leave-one-out result as ``loo_run`` builds it, gated at ``lam``."""
    nb = Neighborhood(target_id, ("s",), 1.0)
    comp = Composition(target_id, {"s": 1.0}, rho, rho, pred, rho <= lam,
                       "optimal", nb)
    return TargetResult(comp, obs)


class TestSignMatch:
    @pytest.mark.parametrize("pred,obs,expected", [
        (0.5, 2.0, True),
        (-0.1, 0.4, False),
        (0.0, 0.0, True),
        (0.0, 1.0, False),
        (-3.0, -0.001, True),
    ])
    def test_cases(self, pred, obs, expected):
        assert sign_match(pred, obs) is expected

    @given(st.floats(-10, 10), st.floats(-10, 10))
    @settings(max_examples=100)
    def test_symmetry(self, a, b):
        assert sign_match(a, b) == sign_match(b, a)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            sign_match(float("nan"), 1.0)


class TestMetrics:
    def test_unit_errors(self):
        results = [fake_result("a", 0.0, 1.0, 0.1),   # error +1
                   fake_result("b", 0.0, -1.0, 0.1)]  # error -1
        assert mse(results) == pytest.approx(1.0)
        assert mae(results) == pytest.approx(1.0)

    def test_perfect_monotone_prediction(self):
        obs = [0.1, 0.5, -0.2, 0.9]
        preds = [x * 2 + 0.01 for x in obs]  # strictly monotone transform
        assert spearman(preds, obs) == pytest.approx(1.0)

    def test_sign_rate(self):
        results = [fake_result("a", 1.0, 1.0, 0.1),
                   fake_result("b", 1.0, -1.0, 0.1),
                   fake_result("c", -2.0, -0.5, 0.1),
                   fake_result("d", 0.0, 0.0, 0.1)]
        assert sign_match_rate(results) == pytest.approx(0.75)

    def test_spearman_matches_scipy_with_ties(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(0)
        for _ in range(20):
            xs = rng.integers(-3, 4, size=12).astype(float)  # plenty of ties
            ys = rng.integers(-3, 4, size=12).astype(float)
            if len(set(xs)) < 2 or len(set(ys)) < 2:
                continue
            expected = scipy_stats.spearmanr(xs, ys).statistic
            assert spearman(list(xs), list(ys)) == pytest.approx(expected, abs=1e-12)

    def test_spearman_insufficient_data(self):
        with pytest.raises(InsufficientDataError):
            spearman([1.0], [2.0])
        with pytest.raises(InsufficientDataError):
            spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])  # zero rank variance

    def test_average_ranks_with_ties(self):
        assert average_ranks([10.0, 20.0, 20.0, 30.0]) == [1.0, 2.5, 2.5, 4.0]

    def test_metrics_permutation_invariant(self):
        rng = np.random.default_rng(4)
        results = [fake_result(f"e{i}", float(rng.normal()), float(rng.normal()), 0.1)
                   for i in range(10)]
        base = asdict(build_report(results, lambda_used=0.462))
        shuffled = list(results)
        rng.shuffle(shuffled)
        assert asdict(build_report(shuffled, lambda_used=0.462)) == pytest.approx(base)

    def test_empty_composable_set_raises(self):
        with pytest.raises(InsufficientDataError):
            mse([])


class TestLooRun:
    def test_toy_archive_deterministic(self, toy_archive, toy_features, default_cfg):
        r1 = loo_run(toy_archive, toy_features, default_cfg)
        r2 = loo_run(toy_archive, toy_features, default_cfg)
        assert len(r1) == 12
        assert [x.to_record() for x in r1] == [x.to_record() for x in r2]

    def test_two_coincident_experiments(self, default_cfg):
        arc = Archive((exp("a", 0.5, text="same"), exp("b", 0.5, text="same")))
        vec = np.array([1.0, 2.0, 3.0])
        features = {"a": vec, "b": vec.copy()}
        results = loo_run(arc, features, default_cfg)
        for r in results:
            assert r.rho == 0.0
            assert r.composable
            assert r.sign_matched is True

    def test_sign_matched_present_iff_composable(self, toy_archive, toy_features,
                                                 default_cfg):
        for r in loo_run(toy_archive, toy_features, default_cfg):
            assert (r.sign_matched is not None) == r.composable

    def test_every_target_is_held_out_of_its_own_pool(self, toy_archive,
                                                      toy_features):
        # A radius and cap that keep the whole pool: each target's candidates
        # are exactly the other n - 1 experiments.
        cfg = ComposerConfig(radius_factor=1e6, max_candidates=1000)
        ids = set(toy_archive.ids())
        for r in loo_run(toy_archive, toy_features, cfg):
            candidates = r.composition.neighborhood.candidate_ids
            assert len(candidates) == len(toy_archive) - 1
            assert set(candidates) == ids - {r.target_id}

    def test_small_archive_rejected(self, toy_features, default_cfg):
        arc = Archive((exp("a", 0.1),))
        with pytest.raises(Exception):
            loo_run(arc, {"a": np.zeros(3)}, default_cfg)

    def test_composition_without_effect_rejected(self, toy_archive, toy_features,
                                                 default_cfg, monkeypatch):
        import dataclasses

        from exatlas import evaluator

        real = evaluator.assess_rows
        monkeypatch.setattr(evaluator, "assess_rows", lambda *args: [
            dataclasses.replace(c, composed_effect=None) for c in real(*args)])
        with pytest.raises(EvaluatorError,
                           match="^no effect prediction for target 'toy-001'$"):
            loo_run(toy_archive, toy_features, default_cfg)

    def test_duplicate_pairs_drive_links_and_conflicts(self, toy_archive,
                                                       toy_features, default_cfg):
        # toy-001/002 share texts with same-sign effects; toy-003/004 with
        # opposite signs. All four should pass the gate.
        by_id = {r.target_id: r for r in loo_run(toy_archive, toy_features,
                                                 default_cfg)}
        for t in ("toy-001", "toy-002", "toy-003", "toy-004"):
            assert by_id[t].composable, t
        assert by_id["toy-001"].sign_matched is True
        assert by_id["toy-003"].sign_matched is False


class TestReport:
    def test_report_counts(self):
        results = [fake_result("a", 1.0, 1.0, 0.1),
                   fake_result("b", 1.0, 1.0, 0.9),
                   fake_result("c", -1.0, -2.0, 0.2)]
        report = build_report(results, lambda_used=0.462)
        assert report.n_total == 3
        assert report.n_composable == 2
        assert report.coverage == pytest.approx(2 / 3)
        assert report.sign_match_rate == pytest.approx(1.0)

    def test_no_composable_yields_none_metrics(self):
        results = [fake_result("a", 1.0, 1.0, 0.9)]
        report = build_report(results, lambda_used=0.462)
        assert report.n_composable == 0
        assert report.mse is None and report.spearman is None
        assert "n/a" in report.format_table()

    def test_table_mentions_all_four_metrics(self):
        results = [fake_result(f"e{i}", float(i - 1), float(2 * i - 2), 0.1)
                   for i in range(4)]
        table = build_report(results, 0.462).format_table()
        for token in ("Sign match", "MSE", "MAE", "Spearman"):
            assert token in table


class TestCalibration:
    def test_default_grid_brackets_published_threshold(self):
        grid = default_grid()
        assert grid[0] == pytest.approx(0.05)
        assert grid[-1] == pytest.approx(1.50)
        assert len(grid) == 291
        assert min(abs(g - 0.462) for g in grid) < 0.005 / 2 + 1e-12

    def test_coverage_monotone_and_tie_breaks_small(self, toy_archive,
                                                    toy_features, default_cfg):
        curve = calibrate_lambda(loo_run(toy_archive, toy_features, default_cfg),
                                 default_grid())
        cov = curve.coverage_at
        assert all(b >= a for a, b in zip(cov, cov[1:]))
        best = max(curve.objective_at)
        winners = [g for g, o in zip(curve.grid, curve.objective_at) if o == best]
        assert curve.chosen_lambda == min(winners)

    def test_dominant_lambda_chosen(self):
        # One lambda reaches full coverage at the grid-minimum MSE: it wins.
        results = [fake_result("a", 1.0, 1.0, 0.10),
                   fake_result("b", 2.0, 2.0, 0.20)]
        curve = calibrate_lambda(results, [0.05, 0.15, 0.25])
        assert curve.chosen_lambda == pytest.approx(0.25)
        assert curve.objective_at[-1] == pytest.approx(1.0)

    def test_empty_composable_grid_point_gets_objective_zero(self):
        results = [fake_result("a", 1.0, 1.0, 0.5)]
        curve = calibrate_lambda(results, [0.1, 0.6])
        assert curve.mse_at[0] is None
        assert curve.objective_at[0] == 0.0
        assert curve.coverage_at[0] == 0.0

    def test_constant_mse_scales_to_zero(self):
        results = [fake_result("a", 1.0, 2.0, 0.1),
                   fake_result("b", 1.0, 2.0, 0.2)]
        curve = calibrate_lambda(results, [0.15, 0.25])
        assert curve.scaled_mse_at == (0.0, 0.0)

    def test_weights_computed_once_across_grid(self, tmp_path, monkeypatch):
        from oracles import count_problems_solved

        from exatlas.cli import main, toy_archive_path

        calls = count_problems_solved(monkeypatch)
        assert main(["calibrate", "--archive", str(toy_archive_path()),
                     "--provider", "stub:d=8,seed=1", "--out", str(tmp_path)]) == 0
        # Once per target, not per lambda: the grid has 291 points.
        assert calls["n"] == 12

    def test_invalid_grids_rejected(self):
        results = [fake_result("a", 1.0, 1.0, 0.1)]
        with pytest.raises(ValueError):
            calibrate_lambda(results, [])
        with pytest.raises(ValueError):
            calibrate_lambda(results, [0.3, 0.2])

    @given(st.lists(st.floats(0.01, 2.0), min_size=2, max_size=30))
    @settings(max_examples=30)
    def test_coverage_monotonicity_property(self, rhos):
        results = [fake_result(f"e{i}", 1.0, 1.0, r) for i, r in enumerate(rhos)]
        curve = calibrate_lambda(results, [0.1, 0.5, 1.0, 1.5, 2.5])
        cov = curve.coverage_at
        assert all(b >= a for a, b in zip(cov, cov[1:]))


def test_sign_helper():
    assert sign(3.2) == 1 and sign(-0.1) == -1 and sign(0.0) == 0
