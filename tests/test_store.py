"""The feature-store path against the per-target reference, ``oracles.reference_assess``.

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
from oracles import (count_problems_solved, pass_ratio, record_exact_distances,
                     record_exact_residuals, record_selected_targets, reference_assess,
                     reference_isolated_ratio, select_candidates)

from exatlas.archive import Archive, Experiment
from exatlas.atlas import isolated_ratio
from exatlas.composer import (GRAM_BAND, ComposerConfig, ComposerError, Features, FeatureStore,
                              assess, assess_rows, gate_rows)
from exatlas.evaluator import loo_run
from exatlas.representation import (DeterministicStubProvider, feature_matrix, read_vector_file,
                                    write_vector_file)


def record_bytes(comp) -> str:
    return json.dumps(comp.to_record(), sort_keys=True)


def gate_of(comp) -> tuple:
    """What a gate decides for a composition: candidate ids in order, the
    bytes of the local scale and of the weights, and rho <= lambda."""
    return (tuple(comp.weights), np.float64(comp.neighborhood.local_scale).tobytes(),
            np.array(list(comp.weights.values())).tobytes(), comp.composable)


def gate_record(store, gate) -> tuple:
    return (tuple(store.ids[j] for j in gate.cols.tolist()), np.float64(gate.scale).tobytes(),
            gate.weights.tobytes(), gate.composable)


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
    # radius_factor * scale overflows: the target's own row must stay out.
    "overflowing-radius": (gaussian_features(9, 30), ComposerConfig(radius_factor=1e308)),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_store_matches_assess_byte_for_byte(case):
    features, cfg = CASES[case]
    ids = tuple(features)
    effects = {i: float(k % 7) - 3.0 for k, i in enumerate(ids)}
    store = FeatureStore.from_features(features, ids)
    for tid, got in zip(ids, assess_rows(store, effects, cfg)):
        want = reference_assess(tid, features, ids, effects, cfg)
        assert record_bytes(got) == record_bytes(want), tid
        assert got.neighborhood == want.neighborhood, tid


@pytest.mark.parametrize("case", sorted(CASES))
def test_assess_matches_reference_byte_for_byte(case):
    """``assess`` of one target on a pool dict, whose store puts the target
    first and the pool in its own order."""
    features, cfg = CASES[case]
    ids = tuple(features)
    effects = {i: float(k % 7) - 3.0 for k, i in enumerate(ids)}
    for tid in ids:
        target = Experiment(id=tid, treatment_text="t", outcome_text="o", effect_size=0.0)
        pool = {i: features[i] for i in reversed(ids) if i != tid}
        got = assess(target, features[tid], pool, effects, cfg)
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
    assert grown.matrix is store.matrix
    matrix = np.concatenate((grown.matrix, grown.extra))
    np.testing.assert_allclose(grown.gram, matrix[:len(ids)] @ matrix.T)
    effects = {i: 1.0 for i in ids}
    for tid, got in zip(ids, assess_rows(grown, effects, cfg)):
        want = reference_assess(tid, features, ids, effects, cfg, extra)
        assert record_bytes(got) == record_bytes(want), tid


def test_store_holds_gram_rows_of_its_targets(monkeypatch):
    """``assess`` computes its target's Gram row alone, and ``extended`` the
    targets' products with the new rows alone, in one product of the store's
    own matrix, not a copy, and the new rows: the rows it appends are never
    targets."""
    from exatlas import composer as composer_mod

    features, cfg = CASES["lattice-ties"]
    ids = tuple(features)
    rows = list(features.values())
    calls = []
    real = composer_mod._inner_products

    def recording(matrix, targets, right):
        calls.append((matrix, list(targets), right))
        return real(matrix, targets, right)

    monkeypatch.setattr(composer_mod, "_inner_products", recording)
    target = Experiment(id=ids[0], treatment_text="t", outcome_text="o", effect_size=0.0)
    assess(target, rows[0], {i: features[i] for i in ids[1:]}, None, cfg)
    ((matrix, targets, right),) = calls
    assert targets == [0] and matrix[0].tobytes() == rows[0].tobytes() and right is matrix

    store = FeatureStore.from_features(features, ids)
    for k in (2, 3):
        calls.clear()
        added = {f"hypothetical:{len(store.ids)}:{j}": rows[j] + 0.5 for j in range(k)}
        grown = store.extended(added)
        ((matrix, targets, right),) = calls
        assert matrix is store.matrix and targets == list(range(len(ids)))
        assert right.shape == (k, len(rows[0]))
        assert grown.gram.shape == (len(ids), len(grown.ids))
        assert grown.gram[:, :len(store.ids)].tobytes() == store.gram.tobytes()
        np.testing.assert_allclose(grown.gram[:, len(store.ids):],
                                   np.stack(rows) @ np.stack(list(added.values())).T)
        assert grown.sq_norms.shape == (len(grown.ids),)
        store = grown


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


def test_stores_share_the_read_matrix(tmp_path, monkeypatch):
    """A store over a ``read_vector_file`` mapping in file order holds the
    file's matrix itself, not a copy: in a whole ``loo_run``, in a
    one-target one (whose Gram matrix is the target's one row), and before
    and after ``extended``. Rows in another order are stacked anew. So is a
    store over ``feature_matrix``'s vectors in archive order."""
    from exatlas import evaluator as evaluator_mod

    features = gaussian_features(6, 40)
    ids = tuple(features)
    path = tmp_path / "vectors.jsonl"
    write_vector_file(path, features)
    vectors = read_vector_file(path)
    archive, cfg = make_archive(ids), ComposerConfig()
    stores = []
    real = evaluator_mod.assess_rows

    def recording(store, *args):
        stores.append(store)
        return real(store, *args)

    monkeypatch.setattr(evaluator_mod, "assess_rows", recording)
    full = {r.target_id: json.dumps(r.to_record()) for r in loo_run(archive, vectors, cfg)}
    (one,) = loo_run(archive, vectors, cfg, [ids[7]])
    assert json.dumps(one.to_record()) == full[ids[7]]
    assert [store.gram.shape for store in stores] == [(40, 40), (1, 40)]
    store = FeatureStore.from_features(vectors, ids)
    grown = store.extended({"hypothetical:0": features[ids[0]] + 0.5})
    for held in (*stores, store, grown):
        assert all(np.shares_memory(held.matrix[k], vectors[i]) for k, i in enumerate(ids))
    assert grown.matrix is store.matrix
    assert not np.shares_memory(FeatureStore.from_features(vectors, ids[::-1]).matrix,
                                vectors[ids[0]])
    embedded = feature_matrix(archive, DeterministicStubProvider(4))
    assert np.shares_memory(FeatureStore.from_features(embedded, ids).matrix, embedded[ids[-1]])


def test_features_is_a_mapping_of_its_rows():
    """Iteration, ``values`` and ``items`` follow row order; every value is
    a view of ``matrix``; ``len``, ``in`` and ``get`` work as for a dict, and
    the index of rows by id is built on the first lookup by id."""
    ids = ["c", "a", "d", "b"]
    features = Features(ids, np.asfortranarray(np.arange(12).reshape(4, 3)))
    assert features.matrix.flags.c_contiguous and features.matrix.dtype == np.float64
    assert list(features) == ids and len(features) == 4
    assert "rows" not in vars(features)
    assert [v.tolist() for v in features.values()] == features.matrix.tolist()
    assert [k for k, _ in features.items()] == ids
    assert all(np.shares_memory(v, features.matrix) for v in features.values())
    assert "a" in features and "e" not in features
    assert features["d"].tolist() == [6.0, 7.0, 8.0]
    assert features.get("e") is None
    with pytest.raises(KeyError):
        features["e"]
    assert features.rows == {"c": 0, "a": 1, "d": 2, "b": 3}


def test_stores_from_features_in_any_layout():
    """A store of the archive's ids from Features in archive order, from
    Features with extra trailing ids, from permuted Features and from a dict
    of the same vectors: the same assess_rows records and gate_rows
    decisions, before and after extending it by Features or by a dict. Only
    the first two hold the Features' matrix itself."""
    base = gaussian_features(11, 40)
    ids = tuple(base)
    rng = np.random.default_rng(12)
    extra = rng.standard_normal((3, 24))
    order = rng.permutation(len(ids))
    layouts = {
        "in order": Features(ids, np.stack(list(base.values()))),
        "trailing": Features([*ids, "x0", "x1", "x2"], np.vstack([*base.values(), extra])),
        "permuted": Features([ids[k] for k in order], np.stack([base[ids[k]] for k in order])),
        "dict": dict(base),
    }
    hypothetical = {"h0": extra[0] * 0.1, "h1": base[ids[3]] + 0.01}
    effects = {i: float(k % 5) - 2.0 for k, i in enumerate(ids)}
    cfg = ComposerConfig(max_candidates=8)
    seen = {}
    for name, features in layouts.items():
        store = FeatureStore.from_features(features, ids)
        grown = [store.extended(hypothetical),
                 store.extended(Features(list(hypothetical), np.stack(list(hypothetical.values()))))]
        seen[name] = ([record_bytes(c) for c in assess_rows(store, effects, cfg)],
                      [[gate_record(s, g) for g in gate_rows(s, cfg)] for s in (store, *grown)])
        assert seen[name] == seen["in order"], name
        assert seen[name][1][1] == seen[name][1][2]
        shares = isinstance(features, Features) and np.shares_memory(store.matrix, features.matrix)
        assert shares == (name in ("in order", "trailing")), name
        assert all(s.matrix is store.matrix for s in grown)


def layout_outputs(features: dict[str, np.ndarray], ids: list[str],
                   cfg: ComposerConfig, one_at_a_time: bool = False) -> dict[str, tuple]:
    """By target id: its result record, its composition record with the
    weights in candidate order, and its gate_rows decision, for the archive
    of ``ids`` in that order (each id keeps one effect). ``one_at_a_time``
    takes each target on a store whose Gram matrix is its one row."""
    archive = Archive(tuple(
        Experiment(id=i, treatment_text="t", outcome_text="o",
                   effect_size=float(sum(map(ord, i)) % 5) - 1.75) for i in ids))
    pool = {i: features[i] for i in reversed(ids)}
    if one_at_a_time:
        results = [r for i in ids for r in loo_run(archive, pool, cfg, [i])]
        stores = [FeatureStore.from_features(features, ids, [t]) for t in range(len(ids))]
        gates = {ids[t]: gate_record(store, next(gate_rows(store, cfg)))
                 for t, store in enumerate(stores)}
    else:
        results = loo_run(archive, pool, cfg)
        store = FeatureStore.from_features(features, ids)
        gates = {store.ids[t]: gate_record(store, gate)
                 for t, gate in enumerate(gate_rows(store, cfg))}
    return {r.target_id: (json.dumps(r.to_record(), sort_keys=True),
                          json.dumps(r.composition.to_record()), gates[r.target_id])
            for r in results}


@pytest.mark.parametrize("case", ["lattice-tight-cap", "near-ties-even-pool"])
def test_outputs_independent_of_layout(case, monkeypatch):
    """However the pass is cut (targets per block, all targets' Gram rows in
    one product or each target's alone, exact distances per chunk) and in
    whatever order the records come, every record and gate decision is the
    same; distance ties break by id, never by row. Each cut runs on the
    records in another order than the reference's: default cut, file order.
    A Gram row computed alone sums in another order: on the near ties some
    of its products differ in their last bits from the whole product's."""
    from exatlas import composer as composer_mod

    features, cfg = CASES[case]
    ids = list(features)
    want = layout_outputs(features, ids, cfg)
    permuted = [ids[k] for k in np.random.default_rng(11).permutation(len(ids))]
    for block in (1, 7, len(ids)):
        for pair in (1, 1000):
            monkeypatch.setattr(composer_mod, "ASSESS_BLOCK", block)
            monkeypatch.setattr(composer_mod, "PAIR_CHUNK", pair)
            assert layout_outputs(features, permuted, cfg) == want, (block, pair)
    assert layout_outputs(features, permuted, cfg, one_at_a_time=True) == want
    if case.startswith("near-ties"):
        whole = FeatureStore.from_features(features, ids).gram
        alone = np.concatenate([FeatureStore.from_features(features, ids, [t]).gram
                                for t in range(len(ids))])
        assert (alone != whole).any()


def test_isolated_ratio_on_an_extended_store():
    """Round by round, the isolated ratio of a gate pass on a store extended
    from the last one (so on the memo of the earlier rounds) equals that of
    a store built afresh of the same rows and the reference's."""
    features = gaussian_features(8, 50, dim=6)
    ids = tuple(features)
    archive = make_archive(ids)
    effects = {e.id: e.effect_size for e in archive}
    cfg = ComposerConfig()
    rows = list(features.values())
    rounds = [{f"hypothetical:{r}:{k}": (rows[2 * k + r] + rows[2 * k + r + 1]) / 2.0
               for k in range(3)} for r in range(3)]
    store = FeatureStore.from_features(features, ids)
    extra: dict[str, np.ndarray] = {}
    trace = [pass_ratio(store, cfg)]
    weighted = 0
    for added in rounds:
        extra.update(added)
        store = store.extended(added)
        trace.append(pass_ratio(store, cfg))
        rebuilt = FeatureStore.from_features({**features, **extra}, ids + tuple(extra),
                                             range(len(ids)))
        assert trace[-1] == pass_ratio(rebuilt, cfg)
        assert trace[-1] == reference_isolated_ratio(archive, features, cfg, extra)
        comps = list(assess_rows(store, effects, cfg))
        for comp in comps:
            if any(w > 0.0 for k, w in comp.weights.items() if k in extra):
                weighted += 1
                assert comp.composed_effect is None
            else:
                assert comp.composed_effect is not None
        assert [gate_record(store, g) for g in gate_rows(store, cfg)] \
            == [gate_of(c) for c in comps]
    assert weighted > 0
    assert trace[0] == reference_isolated_ratio(archive, features, cfg)


def test_memo_skips_unchanged_solves(monkeypatch):
    """A second gate pass on one store solves nothing; an exact pass solves
    every target and leaves the store's memo as it was."""
    features = gaussian_features(9, 30, dim=6)
    ids = tuple(features)
    store = FeatureStore.from_features(features, ids)
    cfg = ComposerConfig()
    solved = count_problems_solved(monkeypatch)
    first = [gate_record(store, g) for g in gate_rows(store, cfg)]
    assert solved["n"] == len(ids)  # one solve per target
    held = dict(store.memo)
    assert len(held) == len(ids)
    assert first == [gate_of(c) for c in assess_rows(store, None, cfg)]
    assert solved["n"] == 2 * len(ids)
    assert store.memo == held
    solved["n"] = 0
    again = [gate_record(store, g) for g in gate_rows(store, cfg)]
    assert again == first
    assert solved["n"] == 0  # and none on the second pass
    singles = []
    for t in range(len(ids)):
        single = FeatureStore.from_features(features, ids, [t])
        single.memo = dict(store.memo)
        singles += [gate_record(single, g) for g in gate_rows(single, cfg)]
    assert singles == first
    assert solved["n"] == 0


@pytest.mark.parametrize("case", ["near-ties-even-pool", "far-centre-runs"])
@pytest.mark.parametrize("block", [2, 64])
def test_subset_targets_assess_as_the_full_pass(case, block, monkeypatch):
    """A pass runs over its store's targets in the order they are stored:
    on unsorted targets [5, 2, 9], split across blocks or in one, assess_rows
    and gate_rows give the full pass's records for those rows, byte for byte."""
    from exatlas import composer as composer_mod

    features, cfg = CASES[case]
    ids = tuple(features)
    effects = {i: float(k % 7) - 3.0 for k, i in enumerate(ids)}
    full = FeatureStore.from_features(features, ids)
    want_comps = [record_bytes(c) for c in assess_rows(full, effects, cfg)]
    want_gates = [gate_record(full, g) for g in gate_rows(full, cfg)]
    monkeypatch.setattr(composer_mod, "ASSESS_BLOCK", block)
    calls = record_selected_targets(monkeypatch)
    rows = [5, 2, 9]
    store = FeatureStore.from_features(features, ids, rows)
    assert [record_bytes(c) for c in assess_rows(store, effects, cfg)] == \
        [want_comps[t] for t in rows]
    assert [gate_record(store, g) for g in gate_rows(store, cfg)] == \
        [want_gates[t] for t in rows]
    assert calls == 2 * ([[5, 2], [9]] if block == 2 else [rows])


def test_sibling_stores_keep_their_own_memos():
    """Two stores extended from one, whose new rows have the same numbers
    but other vectors, each gate as a store built afresh of their rows,
    byte for byte, whichever pass runs first: each starts from a copy of
    the parent's memo and never sees the other's entries."""
    features = gaussian_features(10, 30, dim=6)
    ids = tuple(features)
    cfg = ComposerConfig()
    rows = list(features.values())
    rng = np.random.default_rng(3)
    mids = [(rows[2 * k] + rows[2 * k + 1]) / 2.0 for k in range(6)]
    extras = [{f"hypothetical:{k}": m for k, m in enumerate(mids)},
              {f"hypothetical:{k}": m + 0.01 * rng.standard_normal(m.size)
               for k, m in enumerate(mids)}]
    parent = FeatureStore.from_features(features, ids)
    list(gate_rows(parent, cfg))
    siblings = [parent.extended(extra) for extra in extras]
    fresh = [FeatureStore.from_features({**features, **extra}, ids + tuple(extra),
                                        range(len(ids))) for extra in extras]
    want = [[gate_record(f, g) for g in gate_rows(f, cfg)] for f in fresh]
    for order in ((0, 1), (1, 0), (0, 1)):
        for k in order:
            got = [gate_record(siblings[k], g)
                   for g in gate_rows(siblings[k], cfg)]
            assert got == want[k], (order, k)
    # The test bites: some target keeps candidate rows of one number in both,
    # with other weights.
    a, b = (store.memo for store in siblings)
    assert any(a[key][0].tobytes() != b[key][0].tobytes() for key in a.keys() & b.keys())
    assert parent.memo.keys() < a.keys()


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
def test_memo_pass_takes_the_exact_distances_of_a_fresh_pass(case, monkeypatch):
    """The memo holds solves alone: round by round, a gate_rows pass on the
    memo of the earlier rounds takes the same exact distances as a fresh
    assess_rows pass on the same store, and decides as the reference does."""
    features, cfg, rounds = ROUNDS[case]
    ids = tuple(features)
    archive = make_archive(ids)
    effects = {e.id: e.effect_size for e in archive}
    pairs = record_exact_distances(monkeypatch)
    store = FeatureStore.from_features(features, ids)
    extra: dict[str, np.ndarray] = {}
    for added in [{}] + rounds(features):
        extra.update(added)
        store = store.extended(added)
        pairs.clear()
        got = [gate_record(store, g) for g in gate_rows(store, cfg)]
        taken = sorted(pairs)
        pairs.clear()
        comps = list(assess_rows(store, effects, cfg))
        assert taken == sorted(pairs)
        assert got == [gate_of(c) for c in comps]
        assert got == [gate_of(reference_assess(t, features, ids, effects, cfg, extra))
                       for t in ids]
        assert pass_ratio(store, cfg) == reference_isolated_ratio(archive, features, cfg, extra)
    assert all(isinstance(t, int) and isinstance(cols, tuple) for t, cols in store.memo)


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
        got = list(assess_rows(store, None, cfg))
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


def test_run_reaches_past_a_held_distance(monkeypatch):
    """Sorted by lower bound: W's wide bracket, then P's exact distance, held
    since the median (P's bracket reaches M's, the upper middle value), then
    Q's bracket, which meets W's but not P's. Q is refined too, since W's
    exact distance, once taken, falls inside Q's bracket."""
    distances = {"a0": 0.30, "a1": 0.31, "a2": 0.32, "a3": 0.33,
                 "m": 0.9985, "p": 1.0, "w": 1.0009, "q": 1.0012}
    features = {"t": np.array([1e3])}
    features.update((i, np.array([1e3 + d])) for i, d in distances.items())
    ids = tuple(features)
    cfg = ComposerConfig(radius_factor=3.0)
    store = FeatureStore.from_features(features, ids, [0])
    pairs = record_exact_distances(monkeypatch)
    (got,) = gate_rows(store, cfg)
    assert [ids[j] for _, j in pairs] == ["a3", "m", "p", "w", "q"]
    kept = tuple(ids[j] for j in got.cols.tolist())
    pool = {i: features[i] for i in ids[1:]}
    want = select_candidates("t", features["t"], pool, cfg)
    assert kept == want.candidate_ids
    assert np.float64(got.scale).tobytes() == np.float64(want.local_scale).tobytes()
    assert kept[-3:] == ("p", "w", "q")


def test_store_rejects_bad_rows():
    with pytest.raises(ComposerError, match="non-finite"):
        FeatureStore.from_features({"a": np.zeros(3), "b": np.array([0.0, np.nan, 1.0])},
                                   ["a", "b"])
    with pytest.raises(ComposerError, match="^dimension mismatch: target has length 3, "
                                            "candidate has length 4$"):
        FeatureStore.from_features({"a": np.zeros(3), "b": np.zeros(4)}, ["a", "b"])
    store = FeatureStore.from_features({"a": np.zeros(3), "b": np.ones(3)}, ["a", "b"])
    with pytest.raises(ComposerError, match="^dimension mismatch: target has length 3, "
                                            "candidate has length 2$"):
        store.extended({"c": np.zeros(2)})
    with pytest.raises(ValueError, match="already"):
        store.extended({"a": np.zeros(3)})
    assert store.extended({}) is store
    with pytest.raises(ComposerError, match="^feature vector of 'b' has non-finite values$"):
        FeatureStore.from_features(Features("ab", [[0.0, 1.0], [np.inf, 0.0]]), ["a", "b"])
    with pytest.raises(ComposerError, match="^dimension mismatch: target has length 3, "
                                            "candidate has length 2$"):
        store.extended(Features(["c"], np.zeros((1, 2))))


def test_missing_features_name_up_to_five_ids():
    features = gaussian_features(0, 4)
    ids = [f"x{k}" for k in range(7)] + list(features)
    message = r"^features missing for ids: \['x0', 'x1', 'x2', 'x3', 'x4'\]$"
    with pytest.raises(ComposerError, match=message):
        FeatureStore.from_features(features, ids)
    with pytest.raises(ComposerError, match=message):
        loo_run(make_archive(ids), features, ComposerConfig())
    with pytest.raises(ComposerError, match=message):
        FeatureStore.from_features(Features(features, np.stack(list(features.values()))), ids)


# The gate path: gate_rows brackets each residual from the normal equations
# and takes the exact one only where the bracket straddles lambda or the
# local scale is 0. Its candidates, weights and decisions must equal
# assess_rows' everywhere, and its exact residuals must be the ones named.

def row_of(store, y) -> int:
    """The row of ``store`` whose feature vector ``y`` is a view of."""
    return next(t for t, row in enumerate(store.matrix) if np.shares_memory(row, y))


@pytest.mark.parametrize("case", sorted(CASES))
def test_gate_matches_assess(case):
    features, cfg = CASES[case]
    ids = tuple(features)
    store = FeatureStore.from_features(features, ids)
    want = [gate_of(c) for c in assess_rows(store, None, cfg)]
    assert [gate_record(store, g) for g in gate_rows(store, cfg)] == want


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 70), dim=st.integers(2, 30),
       cap=st.sampled_from([1, 5, 30, 500]), lambda_=st.sampled_from([0.1, 0.462, 1.0]))
def test_tie_free_gate_pass_takes_no_residual(seed, n, dim, cap, lambda_):
    """Where no target's rho is within 1e-6 of lambda, relatively, every
    bracket settles the gate."""
    cfg = ComposerConfig(max_candidates=cap, lambda_=lambda_)
    features = gaussian_features(seed, n, dim)
    ids = tuple(features)
    store = FeatureStore.from_features(features, ids)
    want = list(assess_rows(store, None, cfg))
    assume(all(abs(c.normalized_residual - lambda_) > 1e-6 * lambda_ for c in want))
    with pytest.MonkeyPatch.context() as mp:
        taken = record_exact_residuals(mp)
        gates = list(gate_rows(store, cfg))
    assert taken == []
    assert [gate_record(store, g) for g in gates] == [gate_of(c) for c in want]
    archive = make_archive(ids)
    assert isolated_ratio(gates) == reference_isolated_ratio(archive, features, cfg)


@pytest.mark.parametrize("pick", [0, 17, 39])
def test_lambda_at_a_targets_rho_takes_that_residual(pick, monkeypatch):
    """With lambda set to one target's exact rho, only that target's bracket
    straddles it: its residual is taken, and r / s <= lambda holds exactly."""
    features = gaussian_features(13, 40, dim=10)
    ids = tuple(features)
    rhos = sorted((reference_assess(i, features, ids, None, ComposerConfig()).normalized_residual,
                   i) for i in ids)
    rho, tid = rhos[pick]
    cfg = ComposerConfig(lambda_=rho)
    want = [gate_of(reference_assess(i, features, ids, None, cfg)) for i in ids]
    assert want[ids.index(tid)][3] is True
    store = FeatureStore.from_features(features, ids)
    taken = record_exact_residuals(monkeypatch)
    got = [gate_record(store, g) for g in gate_rows(store, cfg)]
    assert [row_of(store, y) for y in taken] == [ids.index(tid)]
    assert got == want


def zero_scale_features(magnitude: float, copies: int, seed: int) -> dict[str, np.ndarray]:
    """A target, ``copies`` exact copies of it and fewer other rows: the
    target's and each copy's median distance is 0. At large magnitudes the
    weighted sum of the copies misses the target by rounding alone."""
    rng = np.random.default_rng(seed)
    y = magnitude * rng.standard_normal(6)
    features = {"t": y}
    features.update((f"c{k}", y.copy()) for k in range(copies))
    features.update((f"o{k}", rng.standard_normal(6)) for k in range(copies - 1))
    return features


@pytest.mark.parametrize("magnitude, copies, seed, raises", [
    (1.0, 3, 0, False), (1e3, 7, 0, False), (1e6, 2, 0, False), (1e6, 2, 1, True),
    (1e6, 3, 4, True), (1e6, 5, 1, True), (1e9, 5, 0, True), (1e9, 5, 1, False)])
def test_zero_scale_pool_gates_as_assess(magnitude, copies, seed, raises):
    features = zero_scale_features(magnitude, copies, seed)
    ids = tuple(features)
    cfg = ComposerConfig()

    def outcome(decide):
        try:
            return decide()
        except ComposerError as e:
            assert str(e).startswith("local scale is 0 but the residual is "), e
            return str(e)

    for t, tid in enumerate(ids):
        want = outcome(lambda: gate_of(reference_assess(tid, features, ids, None, cfg)))
        store = FeatureStore.from_features(features, ids, [t])
        got = outcome(lambda: gate_record(store, next(gate_rows(store, cfg))))
        assert got == want, tid
        if tid == "t":
            assert isinstance(want, str) is raises


def scale_shift_features() -> tuple[dict[str, np.ndarray], list[dict[str, np.ndarray]]]:
    """A centre t with 40 rows at about 0.5 (the 30 nearest are its
    candidates) and 41 at 2.00, 2.01, ..., 2.40 (its median), plus three
    rounds of two rows at 10 or more: each round moves t's median up by 0.01
    and leaves its candidates as they are."""
    rng = np.random.default_rng(21)
    dim = 48
    centre = np.eye(dim)[0]
    features = {"t": centre}
    features.update((f"n{k:02d}", centre + (0.45 + 0.0025 * k) * unit(rng, dim))
                    for k in range(40))
    features.update((f"m{k:02d}", centre + (2.0 + 0.01 * k) * unit(rng, dim))
                    for k in range(41))
    rounds = [{f"hypothetical:{r}:{k}": centre + (10.0 + k) * unit(rng, dim) for k in range(2)}
              for r in range(3)]
    return features, rounds


def test_held_bracket_is_decided_again_under_a_new_scale(monkeypatch):
    """t's residual is bracketed in round 0, where its rho is well above
    lambda; round 1 leaves its candidates and so its memo entry, but its new
    scale puts lambda (t's exact rho there) inside the bracket: the residual
    is taken once, and the memo holds it for the later rounds."""
    features, rounds = scale_shift_features()
    ids = tuple(features)
    t = ids.index("t")
    cfg = ComposerConfig(lambda_=reference_assess("t", features, ids, None, ComposerConfig(),
                                                  rounds[0]).normalized_residual)
    extra: dict[str, np.ndarray] = {}
    want = []
    for added in [{}] + rounds:
        extra.update(added)
        want.append([gate_of(reference_assess(i, features, ids, None, cfg, extra)) for i in ids])
    assert [w[t][3] for w in want] == [False, True, True, True]
    exact = reference_assess("t", features, ids, None, cfg).residual

    taken = record_exact_residuals(monkeypatch)
    store = FeatureStore.from_features(features, ids)
    per_round, held = [], []
    for added, expected in zip([{}] + rounds, want):
        store = store.extended(added)
        start = len(taken)
        got = [gate_record(store, g) for g in gate_rows(store, cfg)]
        assert got == expected
        per_round.append([row_of(store, y) for y in taken[start:]])
        (entry,) = [v for k, v in store.memo.items() if k[0] == t]
        held.append(entry[-2:])
    assert per_round == [[], [t], [], []]
    assert held[0][0] < exact < held[0][1]
    assert held[1:] == [(exact, exact)] * 3


def test_loo_run_takes_every_residual_exactly(monkeypatch):
    features = gaussian_features(6, 40)
    ids = tuple(features)
    taken = record_exact_residuals(monkeypatch)
    loo_run(make_archive(ids), features, ComposerConfig())
    assert [next(i for i in ids if features[i].tobytes() == y.tobytes()) for y in taken] \
        == list(ids)


def test_loo_run_assesses_a_repeated_id_once(monkeypatch):
    """Given ids, loo_run assesses each distinct one once, on a store whose
    Gram matrix holds their rows alone, with the results of the full pass."""
    from exatlas import evaluator as evaluator_mod

    features = gaussian_features(6, 40)
    ids = tuple(features)
    archive, cfg = make_archive(ids), ComposerConfig()
    full = {r.target_id: json.dumps(r.to_record()) for r in loo_run(archive, features, cfg)}
    shapes = []
    real = evaluator_mod.assess_rows

    def recording(store, *args):
        shapes.append(store.gram.shape)
        return real(store, *args)

    monkeypatch.setattr(evaluator_mod, "assess_rows", recording)
    got = loo_run(archive, features, cfg, [ids[5], ids[2], ids[5]])
    assert [r.target_id for r in got] == sorted([ids[2], ids[5]])
    assert [json.dumps(r.to_record()) for r in got] == [full[r.target_id] for r in got]
    assert shapes == [(2, len(ids))]
    assert loo_run(archive, features, cfg, []) == []
