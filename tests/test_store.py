"""The feature-store path against the per-target ``assess`` reference.

``assess_rows`` screens distances from one Gram matrix and takes exact norms
only where the screen cannot decide, then solves every target's weights in
one lockstep solver, so its records must equal the reference's byte for
byte, including on exact ties, on near-ties inside the screening band and on
pools smaller than the candidate cap.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from oracles import count_problems_solved, reference_assess, reference_isolated_ratio

from exatlas.archive import Archive, Experiment
from exatlas.atlas import _isolated_ratio, isolated_ratio
from exatlas.composer import (ComposerConfig, ComposerError, DimensionError,
                              FeatureStore, assess_rows)
from exatlas.evaluator import loo_run


def record_bytes(comp) -> str:
    return json.dumps(comp.to_record(), sort_keys=True)


def unit(rng, dim):
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def near_tie_features(seed: int, n_drop: int = 0) -> dict[str, np.ndarray]:
    """Rows around a centre, placed so that the median, the radius cut and the
    30-cap of the centre's pool each fall among distances that agree to within
    the Gram screen's band, plus exact duplicates.

    61 rows sit at distance ~1 (the median), 40 at ~0.5 (more than the cap,
    all inside the radius), and five at 1.5 * (1 + delta) for deltas from
    -1e-12 to 1e-12 (straddling the radius 1.5 * median).
    """
    rng = np.random.default_rng(seed)
    dim = 12
    centre = 3.0 * np.eye(dim)[0]
    rows = [centre]
    rows += [centre + unit(rng, dim) for _ in range(61)]
    rows += [centre + 0.5 * unit(rng, dim) for _ in range(40)]
    rows += [centre + 1.5 * (1 + delta) * unit(rng, dim)
             for delta in (-1e-12, -1e-15, 0.0, 1e-15, 1e-12)]
    rows += [rows[3].copy(), rows[70].copy(), rows[0].copy()]
    rows = rows[: len(rows) - n_drop]
    order = rng.permutation(len(rows))
    return {f"r{k:03d}": rows[int(k)] for k in order}


def lattice_features(seed: int, n: int, dim: int = 6) -> dict[str, np.ndarray]:
    """0/1 vectors: every distance is the square root of an integer, so exact
    ties are everywhere, at the median, the radius and the cap."""
    rng = np.random.default_rng(seed)
    return {f"b{k:03d}": rng.integers(0, 2, size=dim).astype(float) for k in range(n)}


def gaussian_features(seed: int, n: int, dim: int = 24) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(seed)
    return {f"g{k:03d}": rng.standard_normal(dim) for k in range(n)}


CASES = {
    "near-ties-even-pool": (near_tie_features(0), ComposerConfig()),
    "near-ties-odd-pool": (near_tie_features(1, n_drop=1), ComposerConfig()),
    "lattice-ties": (lattice_features(2, 70), ComposerConfig()),
    "lattice-tight-cap": (lattice_features(3, 45), ComposerConfig(max_candidates=5)),
    "cap-above-pool": (gaussian_features(4, 25), ComposerConfig(max_candidates=500)),
    "wide-radius": (gaussian_features(5, 60), ComposerConfig(radius_factor=3.0)),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_store_matches_assess_byte_for_byte(case):
    features, cfg = CASES[case]
    ids = tuple(features)
    effects = {i: float(k % 7) - 3.0 for k, i in enumerate(ids)}
    store = FeatureStore.from_features(features, ids)
    for tid, got in zip(ids, assess_rows(store, range(len(ids)), effects, cfg)):
        want = reference_assess(tid, features, ids, effects, cfg)
        assert record_bytes(got) == record_bytes(want), tid
        assert got.neighborhood == want.neighborhood, tid


@pytest.mark.parametrize("case", ["near-ties-even-pool", "lattice-ties"])
def test_extended_store_matches_assess(case):
    features, cfg = CASES[case]
    ids = tuple(features)
    rows = list(features.values())
    # Hypothetical rows: midpoints of pairs, and one exact copy of a real row.
    extra = {f"hypothetical:{k}": (rows[k] + rows[-k - 1]) / 2.0 for k in range(4)}
    extra["hypothetical:copy"] = rows[5].copy()
    store = FeatureStore.from_features(features, ids)
    grown = store.extended(dict(list(extra.items())[:2])).extended(
        dict(list(extra.items())[2:]))
    assert grown.ids == ids + tuple(extra)
    matrix = np.stack(grown.rows)
    np.testing.assert_allclose(grown.gram, matrix @ matrix.T)
    effects = {i: 1.0 for i in ids}
    for tid, got in zip(ids, assess_rows(grown, range(len(ids)), effects, cfg)):
        want = reference_assess(tid, features, ids, effects, cfg, extra)
        assert record_bytes(got) == record_bytes(want), tid


def make_archive(ids) -> Archive:
    return Archive(tuple(
        Experiment(id=i, treatment_text=f"t {i}", outcome_text=f"o {i}",
                   effect_size=float(k % 5) - 2.0 + 0.25)
        for k, i in enumerate(ids)))


def test_loo_run_independent_of_input_order():
    features = gaussian_features(6, 40)
    ids = list(features)
    cfg = ComposerConfig()
    base = {r.target_id: json.dumps(r.to_record(), sort_keys=True)
            for r in loo_run(make_archive(ids), features, cfg)}
    effects = {e.id: e.effect_size for e in make_archive(ids)}
    rng = np.random.default_rng(7)
    shuffled_ids = [ids[k] for k in rng.permutation(len(ids))]
    shuffled = Archive(tuple(
        Experiment(id=i, treatment_text=f"t {i}", outcome_text=f"o {i}",
                   effect_size=effects[i]) for i in shuffled_ids))
    shuffled_features = {i: features[i] for i in reversed(shuffled_ids)}
    results = loo_run(shuffled, shuffled_features, cfg)
    assert [r.target_id for r in results] == sorted(ids)
    assert {r.target_id: json.dumps(r.to_record(), sort_keys=True)
            for r in results} == base


def test_isolated_ratio_with_and_without_memo():
    features = gaussian_features(8, 50, dim=6)
    ids = tuple(features)
    archive = make_archive(ids)
    effects = {e.id: e.effect_size for e in archive}
    cfg = ComposerConfig()
    rows = list(features.values())
    rounds = [{f"hypothetical:{r}:{k}": (rows[2 * k + r] + rows[2 * k + r + 1]) / 2.0
               for k in range(3)} for r in range(3)]
    store = FeatureStore.from_features(features, ids)
    memo: dict = {}
    extra: dict[str, np.ndarray] = {}
    trace = [_isolated_ratio(store, len(ids), cfg, memo)]
    weighted = 0
    for added in rounds:
        extra.update(added)
        store = store.extended(added)
        trace.append(_isolated_ratio(store, len(ids), cfg, memo))
        assert trace[-1] == _isolated_ratio(store, len(ids), cfg)
        assert trace[-1] == isolated_ratio(archive, features, cfg, extra_features=extra)
        assert trace[-1] == reference_isolated_ratio(archive, features, cfg, extra)
        for m in (memo, None):
            for comp in assess_rows(store, range(len(ids)), effects, cfg, m):
                if any(w > 0.0 for k, w in comp.weights.items() if k in extra):
                    weighted += 1
                    assert comp.composed_effect is None
                else:
                    assert comp.composed_effect is not None
    assert weighted > 0
    assert trace[0] == reference_isolated_ratio(archive, features, cfg)


def test_memo_skips_unchanged_solves(monkeypatch):
    import exatlas.composer as composer_mod

    features = gaussian_features(9, 30, dim=6)
    ids = tuple(features)
    store = FeatureStore.from_features(features, ids)
    memo: dict = {}
    cfg = ComposerConfig()
    solved = count_problems_solved(monkeypatch)
    first = [record_bytes(c) for c in assess_rows(store, range(len(ids)), None, cfg, memo)]
    assert solved["n"] == len(ids)  # one solve per target
    again = [record_bytes(c) for c in assess_rows(store, range(len(ids)), None, cfg, memo)]
    assert again == first
    assert solved["n"] == len(ids)  # and none on the second pass
    singles = [record_bytes(c) for t in range(len(ids))
               for c in assess_rows(store, [t], None, cfg, memo)]
    assert singles == first
    assert solved["n"] == len(ids)


def test_store_rejects_bad_rows():
    with pytest.raises(ComposerError, match="non-finite"):
        FeatureStore.from_features({"a": np.zeros(3), "b": np.array([0.0, np.nan, 1.0])},
                                   ["a", "b"])
    with pytest.raises(DimensionError):
        FeatureStore.from_features({"a": np.zeros(3), "b": np.zeros(4)}, ["a", "b"])
    store = FeatureStore.from_features({"a": np.zeros(3), "b": np.ones(3)}, ["a", "b"])
    with pytest.raises(DimensionError):
        store.extended({"c": np.zeros(2)})
    with pytest.raises(ValueError, match="already"):
        store.extended({"a": np.zeros(3)})
    assert store.extended({}) is store
