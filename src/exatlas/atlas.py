"""Routing assessed targets into links, conflicts, and gaps; atlas export."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping, Sequence, Union

import numpy as np

from .archive import Archive
from .composer import ComposerConfig, Composition, FeatureStore, assess_rows
from .evaluator import TargetResult, sign, sign_match

DEFAULT_GAP_NEIGHBORS = 5


@dataclass(frozen=True)
class Link:
    """Composable target whose predicted direction matches the observed one."""

    target_id: str
    source_weights: Mapping[str, float]


@dataclass(frozen=True)
class Conflict:
    """Composable target whose predicted direction contradicts the observed one.

    ``relaxed`` marks conflicts admitted only under a relaxed threshold.
    """

    target_id: str
    source_weights: Mapping[str, float]
    composed_effect: float
    observed_effect: float
    relaxed: bool = False


@dataclass(frozen=True)
class Gap:
    """Non-composable target, with its nearest candidates for bridge prompts."""

    target_id: str
    rho: float
    nearest_ids: tuple[str, ...]


RoutingOutcome = Union[Link, Conflict, Gap]


def route(comp: Composition, observed: float,
          gap_neighbors: int = DEFAULT_GAP_NEIGHBORS) -> RoutingOutcome:
    """Map one assessed target to exactly one of Link, Conflict, or Gap."""
    if not comp.composable:
        return Gap(
            target_id=comp.target_id,
            rho=comp.normalized_residual,
            nearest_ids=tuple(comp.neighborhood.candidate_ids[:gap_neighbors]),
        )
    if comp.composed_effect is None:
        raise ValueError(
            f"cannot route {comp.target_id!r}: composition has no effect prediction"
        )
    if sign_match(comp.composed_effect, observed):
        return Link(target_id=comp.target_id, source_weights=dict(comp.weights))
    return Conflict(
        target_id=comp.target_id,
        source_weights=dict(comp.weights),
        composed_effect=float(comp.composed_effect),
        observed_effect=float(observed),
    )


def route_results(results: Sequence[TargetResult],
                  gap_neighbors: int = DEFAULT_GAP_NEIGHBORS) -> list[RoutingOutcome]:
    return [route(r.composition, r.observed_effect, gap_neighbors) for r in results]


def mine_conflicts(results: Sequence[TargetResult],
                   cfg: ComposerConfig | None = None,
                   relax_factor: float = 1.5) -> list[Conflict]:
    """Re-gate leave-one-out ``results`` at lambda' = relax_factor * lambda and
    collect sign mismatches.

    At factor 1 this returns exactly the strict conflicts; larger factors only
    add cases. The results' weights and rho values are reused, not re-solved.
    """
    if not math.isfinite(relax_factor):
        raise ValueError(f"relax_factor must be a finite number, got {relax_factor!r}")
    if relax_factor < 1:
        raise ValueError("relax_factor must be >= 1")
    cfg = cfg or ComposerConfig()
    relaxed_lambda = relax_factor * cfg.lambda_
    out: list[Conflict] = []
    for r in results:
        if r.rho <= relaxed_lambda and not sign_match(r.predicted_effect, r.observed_effect):
            out.append(Conflict(
                target_id=r.target_id,
                source_weights=dict(r.composition.weights),
                composed_effect=float(r.predicted_effect),
                observed_effect=float(r.observed_effect),
                relaxed=r.rho > cfg.lambda_,
            ))
    return sorted(out, key=lambda c: c.target_id)


def conflict_to_record(c: Conflict) -> dict[str, Any]:
    return {
        "target_id": c.target_id,
        "weights": {k: float(v) for k, v in c.source_weights.items()},
        "composed_effect": c.composed_effect,
        "observed_effect": c.observed_effect,
        "relaxed": c.relaxed,
    }


def isolated_ratio(archive: Archive, features: Mapping[str, np.ndarray],
                   cfg: ComposerConfig,
                   extra_features: Mapping[str, np.ndarray] | None = None) -> float:
    """Fraction of archive members that neither compose as targets nor
    carry positive weight in any other target's composition.

    ``extra_features`` adds effect-free candidates (hypothetical bridge
    nodes) to every pool; they can change the geometry but are not counted
    in the ratio.
    """
    store = FeatureStore.from_features(features, archive.ids())
    return _isolated_ratio(store.extended(extra_features or {}), len(archive), cfg)


def _isolated_ratio(store: FeatureStore, n_real: int, cfg: ComposerConfig,
                    memo: dict | None = None) -> float:
    """:func:`isolated_ratio` over a store whose first ``n_real`` rows are the
    archive and whose other rows are extra candidates; ``memo`` is passed to
    :func:`assess_rows`."""
    real = store.ids[:n_real]
    receives_weight = dict.fromkeys(real, False)
    composable = []
    for comp in assess_rows(store, range(n_real), None, cfg, memo):
        composable.append(comp.composable)
        for cid, w in comp.weights.items():
            if w > 0.0 and cid in receives_weight:
                receives_weight[cid] = True
    isolated = [i for i, ok in zip(real, composable) if not ok and not receives_weight[i]]
    return len(isolated) / n_real


_DOT_SHAPES = {"link": "ellipse", "conflict": "diamond", "gap": "box",
               "source": "ellipse"}


@dataclass(frozen=True)
class AtlasNode:
    id: str
    sign: int
    status: str  # link | conflict | gap


@dataclass(frozen=True)
class AtlasEdge:
    src: str
    dst: str
    weight: float


@dataclass(frozen=True)
class AtlasGraph:
    """Nodes with effect signs and routing status; weighted source-to-target edges."""

    nodes: tuple[AtlasNode, ...]
    edges: tuple[AtlasEdge, ...]
    conflicts: tuple[str, ...]

    def to_json_doc(self) -> dict[str, Any]:
        return {
            "nodes": [{"id": n.id, "sign": n.sign, "status": n.status}
                      for n in self.nodes],
            "edges": [{"src": e.src, "dst": e.dst, "weight": e.weight}
                      for e in self.edges],
            "conflicts": list(self.conflicts),
        }

    @classmethod
    def from_json_doc(cls, doc: Mapping[str, Any]) -> "AtlasGraph":
        return cls(
            nodes=tuple(AtlasNode(n["id"], int(n["sign"]), n["status"])
                        for n in doc["nodes"]),
            edges=tuple(AtlasEdge(e["src"], e["dst"], float(e["weight"]))
                        for e in doc["edges"]),
            conflicts=tuple(doc["conflicts"]),
        )

    def to_dot(self) -> str:
        def q(s: str) -> str:
            return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'

        lines = ["digraph atlas {"]
        for n in self.nodes:
            attrs = [f"shape={_DOT_SHAPES[n.status]}"]
            if n.status == "conflict":
                attrs.append("color=red")
            elif n.status == "gap":
                attrs.append("style=dashed")
            lines.append(f"  {q(n.id)} [{', '.join(attrs)}];")
        for e in self.edges:
            lines.append(f"  {q(e.src)} -> {q(e.dst)} [label=\"{e.weight:.3f}\"];")
        lines.append("}")
        return "\n".join(lines) + "\n"


def export_graph(outcomes: Sequence[RoutingOutcome],
                 effects: Mapping[str, float],
                 json_path: str | Path | None = None,
                 dot_path: str | Path | None = None) -> AtlasGraph:
    """Assemble the atlas graph and optionally write its JSON and DOT forms.

    Output is deterministic: nodes sort by id, edges by (src, dst). Gap
    targets contribute no edges. ``effects`` supplies the observed effect
    used for each node's sign annotation.
    """
    status: dict[str, str] = {}
    edges: list[AtlasEdge] = []
    conflicts: list[str] = []
    for out in outcomes:
        if out.target_id in status:
            raise ValueError(f"duplicate outcome for target {out.target_id!r}")
        if isinstance(out, Link):
            status[out.target_id] = "link"
            weights = out.source_weights
        elif isinstance(out, Conflict):
            status[out.target_id] = "conflict"
            conflicts.append(out.target_id)
            weights = out.source_weights
        else:
            status[out.target_id] = "gap"
            weights = {}
        for src, w in weights.items():
            if w > 0.0:
                edges.append(AtlasEdge(src=src, dst=out.target_id, weight=float(w)))

    # Sources that were never assessed as targets keep the neutral "source" status.
    node_ids = sorted(set(status) | {e.src for e in edges})
    nodes = tuple(
        AtlasNode(id=i, sign=sign(float(effects[i])), status=status.get(i, "source"))
        for i in node_ids
    )
    graph = AtlasGraph(
        nodes=nodes,
        edges=tuple(sorted(edges, key=lambda e: (e.src, e.dst))),
        conflicts=tuple(sorted(conflicts)),
    )
    if json_path is not None:
        Path(json_path).write_text(
            json.dumps(graph.to_json_doc(), ensure_ascii=False, sort_keys=True,
                       indent=2) + "\n",
            encoding="utf-8",
        )
    if dot_path is not None:
        Path(dot_path).write_text(graph.to_dot(), encoding="utf-8")
    return graph
