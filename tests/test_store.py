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
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import (count_problems_solved, record_exact_distances, reference_assess,
                     reference_isolated_ratio)

from exatlas.archive import Archive, Experiment
from exatlas.atlas import _isolated_ratio, isolated_ratio
from exatlas.composer import (GRAM_BAND, ComposerConfig, ComposerError, DimensionError,
                              FeatureStore, assess_rows, select_candidates)
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


def gaussian_features(seed: int, n: int, dim: int = 24,
                      scale: float = 1.0) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(seed)
    return {f"g{k:03d}": scale * rng.standard_normal(dim) for k in range(n)}


def far_centre_features(seed: int) -> dict[str, np.ndarray]:
    """Rows about 1 from a centre 1000 from the origin, their distances to it
    spaced about 1e-4 apart: the screen brackets a distance near 1 only to
    within about 1e-3, so the brackets around the centre's median, radius
    and 30-cap overlap in long runs."""
    rng = np.random.default_rng(seed)
    dim = 8
    centre = 1e3 * np.eye(dim)[0]
    rows = [centre]
    rows += [centre + r * unit(rng, dim) for r in 1.0 + 1e-4 * rng.permutation(60)]
    rows += [centre + r * unit(rng, dim) for r in 0.66 + 1e-4 * rng.permutation(45)]
    order = rng.permutation(len(rows))
    return {f"f{k:03d}": rows[int(k)] for k in order}


CASES = {
    "near-ties-even-pool": (near_tie_features(0), ComposerConfig()),
    "near-ties-odd-pool": (near_tie_features(1, n_drop=1), ComposerConfig()),
    "lattice-ties": (lattice_features(2, 70), ComposerConfig()),
    "lattice-tight-cap": (lattice_features(3, 45), ComposerConfig(max_candidates=5)),
    "cap-above-pool": (gaussian_features(4, 25), ComposerConfig(max_candidates=500)),
    "wide-radius": (gaussian_features(5, 60), ComposerConfig(radius_factor=3.0)),
    # Screening bands of normal size round to 0 for these rows; see SUBNORMAL_BAND.
    "subnormal-squares": (gaussian_features(1, 40, dim=3, scale=1e-160),
                          ComposerConfig(max_candidates=5)),
    "far-centre-runs": (far_centre_features(7), ComposerConfig()),
    "far-centre-uncapped": (far_centre_features(8), ComposerConfig(max_candidates=500)),
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


def near_tie_rounds(features: dict[str, np.ndarray]) -> list[dict[str, np.ndarray]]:
    """Three rounds of rows for :func:`near_tie_features`, around its centre
    r000: at the median distance, at the radius and among the rows that
    overfill the 30-cap, each within the screen's band of the rows there,
    plus exact copies of a row at the radius, of one inside the cap and of
    the centre."""
    rng = np.random.default_rng(11)
    centre = features["r000"]

    def shell(radius: float, name: str) -> dict[str, np.ndarray]:
        return {f"hypothetical:{name}:{k}": centre + radius * (1 + delta) * unit(rng, centre.size)
                for k, delta in enumerate((-1e-12, -1e-15, 0.0, 1e-12))}

    return [shell(1.0, "median"),
            {**shell(1.5, "radius"), "hypothetical:radius:copy": features["r102"].copy()},
            {**shell(0.5, "cap"), "hypothetical:cap:copy": features["r070"].copy(),
             "hypothetical:centre": centre.copy()}]


def lattice_rounds(features: dict[str, np.ndarray]) -> list[dict[str, np.ndarray]]:
    """Three rounds of rows for :func:`lattice_features`: new 0/1 vectors,
    exactly tied with rows there, and one a band-width off the lattice."""
    rng = np.random.default_rng(12)
    dim = next(iter(features.values())).size
    return [{f"hypothetical:{r}:{k}": rng.integers(0, 2, size=dim) + (1e-12 if k == 0 else 0.0)
             for k in range(3)} for r in range(3)]


# With the cap, the centre of near_tie_features keeps 30 of its 40 rows at 0.5
# and never refines a row at the radius; without it, the radius decides.
ROUNDS = {
    "near-ties-even-pool": (*CASES["near-ties-even-pool"], near_tie_rounds),
    "near-ties-odd-pool": (*CASES["near-ties-odd-pool"], near_tie_rounds),
    "near-ties-uncapped": (near_tie_features(0), ComposerConfig(max_candidates=500),
                           near_tie_rounds),
    "lattice-ties": (*CASES["lattice-ties"], lattice_rounds),
    "lattice-tight-cap": (*CASES["lattice-tight-cap"], lattice_rounds),
}


@pytest.mark.parametrize("case", sorted(ROUNDS))
def test_memo_takes_each_exact_distance_once(case, monkeypatch):
    features, cfg, rounds = ROUNDS[case]
    ids = tuple(features)
    archive = make_archive(ids)
    effects = {e.id: e.effect_size for e in archive}
    pairs = record_exact_distances(monkeypatch)
    store = FeatureStore.from_features(features, ids)
    memo: dict = {}
    extra: dict[str, np.ndarray] = {}
    per_round = []
    for added in [{}] + rounds(features):
        extra.update(added)
        store = store.extended(added)
        start = len(pairs)
        got = [record_bytes(c) for c in assess_rows(store, range(len(ids)), effects, cfg, memo)]
        ratio = _isolated_ratio(store, len(ids), cfg, memo)
        per_round.append(len(pairs) - start)
        assert got == [record_bytes(c) for c in assess_rows(store, range(len(ids)), effects, cfg)]
        assert got == [record_bytes(reference_assess(t, features, ids, effects, cfg, extra))
                       for t in ids]
        assert ratio == reference_isolated_ratio(archive, features, cfg, extra)
        del pairs[start + per_round[-1]:]  # keep only the passes with the memo
    assert len(pairs) == len(set(pairs)) == sum(per_round)
    # The memo holds each distance taken once, ascending by row, and nothing else.
    held = {t: entry for t, entry in memo.items() if isinstance(t, int)}
    assert sorted((t, j) for t, (seen, _) in held.items() for j in seen.tolist()) == sorted(pairs)
    for t, (seen, values) in held.items():
        assert np.all(np.diff(seen) > 0)
        exact = np.linalg.norm(np.stack([store.rows[j] for j in seen]) - store.rows[t], axis=1)
        assert values.tobytes() == exact.tobytes()


def tie_free(features: dict[str, np.ndarray], cfg: ComposerConfig) -> bool:
    """Whether no two squared distances from a row, and none and its squared
    radius, are within twice their Gram screening bands of each other, so
    that the screen decides everything but the median's values."""
    rows = np.stack(list(features.values()))
    sq = np.einsum("ij,ij->i", rows, rows)
    for t in range(len(rows)):
        others = np.delete(np.arange(len(rows)), t)
        d2 = np.sum((rows[others] - rows[t]) ** 2, axis=1)
        band = GRAM_BAND * (sq[others] + sq[t])
        order = np.argsort(d2)
        d2, band = d2[order], band[order]
        if np.any(np.diff(d2) <= 2 * (band[1:] + band[:-1])):
            return False
        radius2 = (cfg.radius_factor * np.median(np.sqrt(d2))) ** 2
        if np.any(np.abs(d2 - radius2) <= 2 * band):
            return False
    return True


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 70), dim=st.integers(2, 30),
       cap=st.sampled_from([1, 5, 30, 500]))
def test_tie_free_pass_takes_only_the_median_norms(seed, n, dim, cap):
    """Where no brackets meet, a pass takes the exact norms of the median's
    rows alone: one a target for an odd pool, two for an even one."""
    cfg = ComposerConfig(max_candidates=cap)
    features = gaussian_features(seed, n, dim)
    assume(tie_free(features, cfg))
    ids = tuple(features)
    store = FeatureStore.from_features(features, ids)
    with pytest.MonkeyPatch.context() as mp:
        pairs = record_exact_distances(mp)
        got = list(assess_rows(store, range(n), None, cfg))
    rows = np.stack(list(features.values()))
    k1, k2 = (n - 2) // 2, (n - 1) // 2
    want = []
    for t, tid in enumerate(ids):
        others = np.delete(np.arange(n), t)
        order = others[np.argsort(np.linalg.norm(rows[others] - rows[t], axis=1))]
        want += [(t, int(j)) for j in sorted(set(order[[k1, k2]].tolist()))]
        pool = {i: features[i] for i in ids if i != tid}
        assert got[t].neighborhood == select_candidates(tid, features[tid], pool, cfg)
    assert sorted(pairs) == want


def test_run_reaches_past_a_held_distance():
    """Sorted by lower bound: W's wide bracket, then P's held exact distance,
    then Q's bracket, which meets W's but not P's. Q is refined too, since W's
    exact distance, once taken, falls inside Q's bracket."""
    distances = {"a0": 0.30, "a1": 0.31, "a2": 0.32, "a3": 0.33, "a4": 0.34,
                 "a5": 0.35, "a6": 0.36, "p": 1.0, "w": 1.0009, "q": 1.0012}
    features = {"t": np.array([1e3])}
    features.update((i, np.array([1e3 + d])) for i, d in distances.items())
    ids = tuple(features)
    cfg = ComposerConfig(radius_factor=3.0)
    store = FeatureStore.from_features(features, ids)
    p = ids.index("p")
    memo = {0: (np.array([p]), np.array([np.linalg.norm(store.rows[p] - store.rows[0])]))}
    (got,) = assess_rows(store, [0], None, cfg, memo)
    pool = {i: features[i] for i in ids[1:]}
    assert got.neighborhood == select_candidates("t", features["t"], pool, cfg)
    assert got.neighborhood.candidate_ids[-3:] == ("p", "w", "q")


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
