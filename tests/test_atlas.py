from __future__ import annotations

import json

import numpy as np
import pytest

from exatlas.atlas import (
    AtlasGraph,
    Conflict,
    Gap,
    Link,
    conflict_to_record,
    export_graph,
    isolated_ratio,
    mine_conflicts,
    route,
    route_results,
)
from exatlas.composer import ComposerConfig, Composition, Neighborhood
from exatlas.evaluator import loo_run


def comp(target_id="t", rho=0.1, composable=True, composed=0.5,
         weights=None, candidates=("a", "b", "c", "d", "e", "f")):
    weights = weights if weights is not None else {"a": 0.6, "b": 0.4}
    nb = Neighborhood(target_id, tuple(candidates), 1.0)
    return Composition(target_id, weights, rho, rho, composed, composable,
                       "optimal", nb)


class TestRoute:
    def test_same_sign_links(self):
        out = route(comp(composed=0.5), observed=2.0)
        assert isinstance(out, Link)
        assert out.source_weights == {"a": 0.6, "b": 0.4}

    def test_opposite_sign_conflicts(self):
        out = route(comp(composed=0.5), observed=-1.0)
        assert isinstance(out, Conflict)
        assert out.composed_effect == 0.5
        assert out.observed_effect == -1.0
        assert out.relaxed is False

    def test_gap_carries_nearest_ids(self):
        out = route(comp(rho=0.9, composable=False), observed=1.0)
        assert isinstance(out, Gap)
        assert out.rho == 0.9
        assert out.nearest_ids == ("a", "b", "c", "d", "e")  # capped at 5

    def test_gap_neighbor_count_configurable(self):
        out = route(comp(rho=0.9, composable=False), observed=1.0, gap_neighbors=2)
        assert out.nearest_ids == ("a", "b")

    def test_routing_total_and_exclusive(self, toy_archive, toy_features,
                                         default_cfg):
        results = loo_run(toy_archive, toy_features, default_cfg)
        outcomes = route_results(results)
        assert len(outcomes) == len(toy_archive)
        assert {o.target_id for o in outcomes} == set(toy_archive.ids())
        for r, o in zip(results, outcomes):
            if not r.composable:
                assert isinstance(o, Gap)
            elif r.sign_matched:
                assert isinstance(o, Link)
            else:
                assert isinstance(o, Conflict)

    def test_composable_without_effect_rejected(self):
        with pytest.raises(ValueError):
            route(comp(composed=None), observed=1.0)


class TestMineConflicts:
    def test_factor_one_equals_strict_conflicts(self, toy_archive, toy_features,
                                                default_cfg):
        results = loo_run(toy_archive, toy_features, default_cfg)
        strict = [o for o in route_results(results) if isinstance(o, Conflict)]
        mined = mine_conflicts(cfg=default_cfg, relax_factor=1.0, results=results)
        assert sorted(c.target_id for c in mined) == sorted(c.target_id for c in strict)
        assert all(c.relaxed is False for c in mined)

    def test_gate_arithmetic_at_boundary(self):
        from exatlas.evaluator import TargetResult

        lam = 0.462
        cfg = ComposerConfig(lambda_=lam)
        rho = 1.2 * lam  # inside 1.5*lambda, outside lambda
        c = comp("t", rho=rho, composable=False, composed=0.5)
        result = TargetResult("t", -1.0, 0.5, rho, False, None, c)
        included = mine_conflicts(cfg=cfg, relax_factor=1.5, results=[result])
        excluded = mine_conflicts(cfg=cfg, relax_factor=1.0, results=[result])
        assert [x.target_id for x in included] == ["t"]
        assert included[0].relaxed is True
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
        rec = conflict_to_record(Conflict("t", {"a": 1.0}, 0.5, -0.5, relaxed=True))
        assert rec == {"target_id": "t", "weights": {"a": 1.0},
                       "composed_effect": 0.5, "observed_effect": -0.5,
                       "relaxed": True}


class TestExportGraph:
    def test_link_with_two_sources_gives_two_edges(self, tmp_path):
        outcomes = [Link("t", {"a": 0.7, "b": 0.3})]
        effects = {"t": 1.0, "a": 1.0, "b": 2.0}
        graph = export_graph(outcomes, effects)
        assert len(graph.edges) == 2
        assert {(e.src, e.dst) for e in graph.edges} == {("a", "t"), ("b", "t")}

    def test_all_gap_input_has_no_edges(self):
        outcomes = [Gap("t1", 0.9, ("a",)), Gap("t2", 1.1, ("b",))]
        graph = export_graph(outcomes, {"t1": 1.0, "t2": -1.0})
        assert graph.edges == ()
        assert all(n.status == "gap" for n in graph.nodes)

    def test_zero_weight_sources_excluded(self):
        outcomes = [Link("t", {"a": 1.0, "b": 0.0})]
        graph = export_graph(outcomes, {"t": 1.0, "a": 1.0})
        assert len(graph.edges) == 1

    def test_byte_identical_output_across_runs(self, tmp_path, toy_archive,
                                               toy_features, default_cfg):
        results = loo_run(toy_archive, toy_features, default_cfg)
        outcomes = route_results(results)
        effects = {e.id: e.effect_size for e in toy_archive}
        paths = []
        for run in (1, 2):
            jp = tmp_path / f"atlas{run}.json"
            dp = tmp_path / f"atlas{run}.dot"
            export_graph(outcomes, effects, json_path=jp, dot_path=dp)
            paths.append((jp.read_bytes(), dp.read_bytes()))
        assert paths[0] == paths[1]

    def test_json_round_trip(self, toy_archive, toy_features, default_cfg):
        results = loo_run(toy_archive, toy_features, default_cfg)
        outcomes = route_results(results)
        effects = {e.id: e.effect_size for e in toy_archive}
        graph = export_graph(outcomes, effects)
        doc = json.loads(json.dumps(graph.to_json_doc()))
        assert AtlasGraph.from_json_doc(doc) == graph

    def test_schema_keys(self):
        graph = export_graph([Conflict("t", {"a": 1.0}, 0.5, -1.0)],
                             {"t": -1.0, "a": 0.5})
        doc = graph.to_json_doc()
        assert set(doc) == {"nodes", "edges", "conflicts"}
        assert doc["conflicts"] == ["t"]
        assert {n["id"]: n["sign"] for n in doc["nodes"]} == {"t": -1, "a": 1}

    def test_edge_weights_equal_composition_weights(self):
        weights = {"a": 0.25, "b": 0.75}
        graph = export_graph([Link("t", weights)], {"t": 1.0, "a": 1.0, "b": 1.0})
        assert {e.src: e.weight for e in graph.edges} == weights

    def test_dot_has_status_keyed_shapes(self):
        outcomes = [Link("l", {"s": 1.0}), Conflict("c", {"s": 1.0}, 1.0, -1.0),
                    Gap("g", 0.9, ())]
        effects = {"l": 1.0, "c": -1.0, "g": 1.0, "s": 1.0}
        dot = export_graph(outcomes, effects).to_dot()
        assert "shape=ellipse" in dot
        assert "shape=diamond" in dot
        assert "shape=box" in dot

    def test_duplicate_targets_rejected(self):
        with pytest.raises(ValueError):
            export_graph([Gap("t", 0.9, ()), Gap("t", 0.8, ())], {"t": 1.0})


class TestIsolatedRatio:
    def test_fully_connected_pair_is_zero(self, default_cfg):
        from exatlas.archive import Archive, Experiment

        arc = Archive(tuple(
            Experiment(id=i, treatment_text="t", outcome_text="o", effect_size=0.5)
            for i in ("a", "b")
        ))
        vec = np.array([1.0, 2.0])
        features = {"a": vec, "b": vec.copy()}
        assert isolated_ratio(arc, features, default_cfg) == 0.0

    def test_extra_features_can_reduce_isolation(self, toy_archive, toy_features,
                                                 default_cfg):
        base = isolated_ratio(toy_archive, toy_features, default_cfg)
        # Planting a clone of an isolated target's feature makes it composable.
        results = loo_run(toy_archive, toy_features, default_cfg)
        gap_ids = [r.target_id for r in results if not r.composable]
        assert gap_ids, "fixture needs at least one gap"
        extra = {"hypothetical:clone": toy_features[gap_ids[0]].copy()}
        with_extra = isolated_ratio(toy_archive, toy_features, default_cfg,
                                    extra_features=extra)
        assert with_extra <= base
