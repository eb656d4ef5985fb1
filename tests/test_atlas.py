from __future__ import annotations

import json
from dataclasses import asdict

import numpy as np
import pytest

from exatlas.atlas import (
    AtlasEdge,
    AtlasGraph,
    AtlasNode,
    conflict_to_record,
    export_graph,
    isolated_ratio,
    mine_conflicts,
)
from exatlas.cli import _write_json
from exatlas.composer import ComposerConfig, Composition, FeatureStore, Neighborhood
from exatlas.evaluator import TargetResult, loo_run


def comp(target_id="t", rho=0.1, composable=True, composed=0.5,
         weights=None, candidates=("a", "b", "c", "d", "e", "f")):
    weights = weights if weights is not None else {"a": 0.6, "b": 0.4}
    nb = Neighborhood(target_id, tuple(candidates), 1.0)
    return Composition(target_id, weights, rho, rho, composed, composable,
                       "optimal", nb)


def result(target_id="t", obs=1.0, pred=0.5, rho=0.1, weights=None, lam=0.462):
    """A leave-one-out result as ``loo_run`` builds it, gated at ``lam``."""
    return TargetResult(comp(target_id, rho, rho <= lam, pred, weights), obs)


def atlas_json(graph, tmp_path):
    """The ``atlas.json`` document of ``graph``, as ``atlas --out`` writes it."""
    _write_json(tmp_path / "atlas.json", graph)
    return json.loads((tmp_path / "atlas.json").read_text(encoding="utf-8"))


class TestStatus:
    def test_same_sign_links(self):
        assert result(obs=2.0, pred=0.5).status == "link"

    def test_opposite_sign_conflicts(self):
        assert result(obs=-1.0, pred=0.5).status == "conflict"

    @pytest.mark.parametrize("pred,obs,expected", [
        (0.0, 0.0, "link"),
        (0.0, 1.0, "conflict"),
        (1.0, 0.0, "conflict"),
    ])
    def test_zero_is_its_own_direction(self, pred, obs, expected):
        assert result(obs=obs, pred=pred).status == expected

    @pytest.mark.parametrize("obs", [1.0, -1.0])
    def test_not_composable_is_a_gap_whatever_the_signs(self, obs):
        assert result(obs=obs, pred=0.5, rho=0.9).status == "gap"

    def test_routing_total_and_exclusive(self, toy_archive, toy_features,
                                         default_cfg):
        results = loo_run(toy_archive, toy_features, default_cfg)
        assert {r.target_id for r in results} == set(toy_archive.ids())
        for r in results:
            if not r.composable:
                assert r.status == "gap"
            elif np.sign(r.predicted_effect) == np.sign(r.observed_effect):
                assert r.status == "link"
            else:
                assert r.status == "conflict"


class TestMineConflicts:
    def test_factor_one_equals_strict_conflicts(self, toy_archive, toy_features,
                                                default_cfg):
        results = loo_run(toy_archive, toy_features, default_cfg)
        strict = [r.target_id for r in results if r.status == "conflict"]
        mined = mine_conflicts(cfg=default_cfg, relax_factor=1.0, results=results)
        assert [c.target_id for c in mined] == sorted(strict)
        assert all(conflict_to_record(c)["relaxed"] is False for c in mined)

    def test_gate_arithmetic_at_boundary(self):
        lam = 0.462
        cfg = ComposerConfig(lambda_=lam)
        rho = 1.2 * lam  # inside 1.5*lambda, outside lambda
        r = result("t", obs=-1.0, pred=0.5, rho=rho, lam=lam)
        included = mine_conflicts(cfg=cfg, relax_factor=1.5, results=[r])
        excluded = mine_conflicts(cfg=cfg, relax_factor=1.0, results=[r])
        assert included == [r]
        assert conflict_to_record(r)["relaxed"] is True
        assert excluded == []

    def test_monotone_in_relax_factor(self, toy_archive, toy_features, default_cfg):
        results = loo_run(toy_archive, toy_features, default_cfg)
        sets = []
        for factor in (1.0, 1.2, 1.5, 2.0):
            mined = mine_conflicts(cfg=default_cfg, relax_factor=factor,
                                   results=results)
            sets.append({c.target_id for c in mined})
        for small, large in zip(sets, sets[1:]):
            assert small <= large

    def test_relax_factor_below_one_rejected(self, default_cfg):
        with pytest.raises(ValueError):
            mine_conflicts(cfg=default_cfg, relax_factor=0.5, results=[])

    @pytest.mark.parametrize("factor", [float("nan"), float("inf")])
    def test_non_finite_relax_factor_rejected(self, default_cfg, factor):
        with pytest.raises(ValueError, match="^relax_factor must be a finite number, got"):
            mine_conflicts(cfg=default_cfg, relax_factor=factor, results=[])

    def test_record_shape(self):
        rec = conflict_to_record(result("t", obs=-0.5, pred=0.5, rho=0.6,
                                        weights={"a": 1.0}))
        assert rec == {"target_id": "t", "weights": {"a": 1.0},
                       "composed_effect": 0.5, "observed_effect": -0.5,
                       "relaxed": True}

    def test_returns_the_results_sorted_by_id(self, default_cfg):
        results = [result("b", obs=-1.0), result("a", obs=-2.0), result("c", obs=1.0)]
        assert mine_conflicts(results, default_cfg, 1.0) == [results[1], results[0]]


class TestExportGraph:
    def test_link_with_two_sources_gives_two_edges(self):
        results = [result("t", obs=1.0, weights={"a": 0.7, "b": 0.3}),
                   result("a", rho=0.9), result("b", rho=0.9)]
        graph = export_graph(results)
        assert len(graph.edges) == 2
        assert {(e.src, e.dst) for e in graph.edges} == {("a", "t"), ("b", "t")}

    def test_all_gap_input_has_no_edges(self):
        # The gaps' compositions carry positive weights; none becomes an edge.
        results = [result("t1", rho=0.9, weights={"a": 1.0}),
                   result("t2", obs=-1.0, rho=1.1, weights={"b": 1.0})]
        graph = export_graph(results)
        assert graph.edges == ()
        assert all(n.status == "gap" for n in graph.nodes)
        assert [n.id for n in graph.nodes] == ["t1", "t2"]

    def test_zero_weight_sources_excluded(self):
        graph = export_graph([result("t", weights={"a": 1.0, "b": 0.0}),
                              result("a", rho=0.9)])
        assert len(graph.edges) == 1

    def test_nodes_carry_each_results_status(self, toy_archive, toy_features,
                                             default_cfg):
        results = loo_run(toy_archive, toy_features, default_cfg)
        graph = export_graph(results)
        assert {n.id: n.status for n in graph.nodes} == {r.target_id: r.status
                                                          for r in results}
        assert {e.dst for e in graph.edges} <= {r.target_id for r in results
                                                 if r.composable}
        assert list(graph.conflicts) == sorted(r.target_id for r in results
                                               if r.status == "conflict")

    def test_byte_identical_output_across_runs(self, toy_archive, toy_features,
                                               default_cfg):
        results = loo_run(toy_archive, toy_features, default_cfg)
        runs = []
        for _ in (1, 2):
            graph = export_graph(results)
            runs.append((json.dumps(asdict(graph), sort_keys=True), graph.to_dot()))
        assert runs[0] == runs[1]

    def test_json_round_trip(self, toy_archive, toy_features, default_cfg, tmp_path):
        graph = export_graph(loo_run(toy_archive, toy_features, default_cfg))
        doc = atlas_json(graph, tmp_path)
        assert AtlasGraph(nodes=tuple(AtlasNode(**n) for n in doc["nodes"]),
                          edges=tuple(AtlasEdge(**e) for e in doc["edges"]),
                          conflicts=tuple(doc["conflicts"])) == graph

    def test_schema_keys(self, tmp_path):
        graph = export_graph([result("t", obs=-1.0, pred=0.5, weights={"a": 1.0}),
                              result("a", obs=0.5, pred=-0.2, rho=0.9)])
        doc = atlas_json(graph, tmp_path)
        assert set(doc) == {"nodes", "edges", "conflicts"}
        assert doc["conflicts"] == ["t"]
        # Each node's sign is its observed effect's, not its prediction's.
        assert {n["id"]: n["sign"] for n in doc["nodes"]} == {"t": -1, "a": 1}
        assert {n["id"]: n["status"] for n in doc["nodes"]} == {"t": "conflict",
                                                                 "a": "gap"}

    def test_edge_source_outside_the_results_rejected(self):
        with pytest.raises(ValueError, match="^edge source 'a' is not among the results$"):
            export_graph([result("t", weights={"a": 0.5, "b": 0.5}), result("b", rho=0.9)])

    def test_edge_weights_equal_composition_weights(self):
        weights = {"a": 0.25, "b": 0.75}
        graph = export_graph([result("t", weights=weights),
                              result("a", rho=0.9), result("b", rho=0.9)])
        assert {e.src: e.weight for e in graph.edges} == weights

    def test_dot_has_status_keyed_shapes(self):
        results = [result("l", obs=1.0, weights={"g": 1.0}),
                   result("c", obs=-1.0, weights={"g": 1.0}),
                   result("g", obs=1.0, rho=0.9)]
        dot = export_graph(results).to_dot()
        assert '"l" [shape=ellipse];' in dot
        assert '"c" [shape=diamond, color=red];' in dot
        assert '"g" [shape=box, style=dashed];' in dot

    def test_duplicate_targets_rejected(self):
        with pytest.raises(ValueError):
            export_graph([result("t", rho=0.9), result("t", rho=0.8)])


class TestIsolatedRatio:
    def test_fully_connected_pair_is_zero(self, default_cfg):
        from exatlas.archive import Archive, Experiment

        arc = Archive(tuple(
            Experiment(id=i, treatment_text="t", outcome_text="o", effect_size=0.5)
            for i in ("a", "b")
        ))
        vec = np.array([1.0, 2.0])
        features = {"a": vec, "b": vec.copy()}
        store = FeatureStore.from_features(features, arc.ids())
        assert isolated_ratio(store, default_cfg) == 0.0

    def test_extra_features_can_reduce_isolation(self, toy_archive, toy_features,
                                                 default_cfg):
        store = FeatureStore.from_features(toy_features, toy_archive.ids())
        base = isolated_ratio(store, default_cfg)
        # Planting a clone of an isolated target's feature makes it composable.
        results = loo_run(toy_archive, toy_features, default_cfg)
        gap_ids = [r.target_id for r in results if not r.composable]
        assert gap_ids, "fixture needs at least one gap"
        extra = {"hypothetical:clone": toy_features[gap_ids[0]].copy()}
        with_extra = isolated_ratio(store.extended(extra), default_cfg)
        assert with_extra <= base
