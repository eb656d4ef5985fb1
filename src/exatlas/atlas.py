"""The atlas of leave-one-out results: graph export, conflict mining and the
isolated ratio. Every function here reads the
:class:`~exatlas.evaluator.TargetResult` list of one ``loo_run``. Each
target's route (link, conflict or gap) is its
:attr:`~exatlas.evaluator.TargetResult.status`, and a conflict is the
result itself; this module never decides either again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from .composer import ComposerConfig, FeatureStore, gate_rows
from .evaluator import TargetResult, sign, sign_match

# The conflict-mining factors of `atlas` and of `reconcile` (strict conflicts only).
DEFAULT_RELAX = 1.5
STRICT_RELAX = 1.0


def check_relax(relax_factor: float) -> None:
    """Reject a conflict-mining factor that is not a finite number >= 1."""
    if not math.isfinite(relax_factor):
        raise ValueError(f"relax_factor must be a finite number, got {relax_factor!r}")
    if relax_factor < 1:
        raise ValueError("relax_factor must be >= 1")


def mine_conflicts(results: Sequence[TargetResult], cfg: ComposerConfig,
                   relax_factor: float = DEFAULT_RELAX) -> list[TargetResult]:
    """The ``results`` whose predicted direction contradicts the observed one,
    re-gated at lambda' = relax_factor * lambda, sorted by target id.

    At factor 1 this returns exactly the strict conflicts; larger factors only
    add cases, which are not composable. The results' weights and rho values
    are reused, not re-solved.
    """
    check_relax(relax_factor)
    relaxed_lambda = relax_factor * cfg.lambda_
    out = [r for r in results
           if r.rho <= relaxed_lambda and not sign_match(r.predicted_effect, r.observed_effect)]
    return sorted(out, key=lambda r: r.target_id)


def conflict_to_record(r: TargetResult) -> dict[str, Any]:
    """The ``conflicts.jsonl`` record of a mined conflict; ``relaxed`` marks one
    admitted only under a relaxed threshold, which is not composable."""
    return {
        "target_id": r.target_id,
        "weights": {k: float(v) for k, v in r.composition.weights.items()},
        "composed_effect": r.predicted_effect,
        "observed_effect": float(r.observed_effect),
        "relaxed": not r.composable,
    }


def isolated_ratio(store: FeatureStore, cfg: ComposerConfig,
                   memo: dict | None = None) -> float:
    """Fraction of archive members that neither compose as targets nor
    carry positive weight in any other target's composition.

    The archive is the store's targets, its first ``len(store.gram)`` rows;
    any further rows are effect-free candidates (hypothetical bridge nodes),
    which can change the geometry but are not counted in the ratio. The
    decisions are :func:`gate_rows`', which takes ``memo``.
    """
    n_real = len(store.gram)
    weighted = np.zeros(len(store.ids), dtype=bool)
    composable = np.zeros(n_real, dtype=bool)
    for t, gate in enumerate(gate_rows(store, range(n_real), cfg, memo)):
        composable[t] = gate.composable
        weighted[gate.cols[gate.weights > 0.0]] = True
    return np.count_nonzero(~composable & ~weighted[:n_real]) / n_real


_DOT_SHAPES = {"link": "ellipse", "conflict": "diamond", "gap": "box"}


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


def export_graph(results: Sequence[TargetResult]) -> AtlasGraph:
    """Assemble the atlas graph of leave-one-out ``results``.

    Each target's node carries its ``status`` and the sign of its observed
    effect; each composable target gets one edge from every source of
    positive weight, and gaps get none. Every edge runs between two of the
    results: a source that is not among them is an error. Output is
    deterministic: nodes sort by id, edges by (src, dst).
    """
    by_id: dict[str, TargetResult] = {}
    edges: list[AtlasEdge] = []
    for r in results:
        if r.target_id in by_id:
            raise ValueError(f"duplicate outcome for target {r.target_id!r}")
        by_id[r.target_id] = r
        if r.composable:
            edges.extend(AtlasEdge(src=src, dst=r.target_id, weight=float(w))
                         for src, w in r.composition.weights.items() if w > 0.0)
    unknown = sorted({e.src for e in edges} - by_id.keys())
    if unknown:
        raise ValueError(f"edge source {unknown[0]!r} is not among the results")

    nodes = [AtlasNode(id=i, sign=sign(float(r.observed_effect)), status=r.status)
             for i, r in sorted(by_id.items())]
    return AtlasGraph(
        nodes=tuple(nodes),
        edges=tuple(sorted(edges, key=lambda e: (e.src, e.dst))),
        conflicts=tuple(n.id for n in nodes if n.status == "conflict"),
    )
