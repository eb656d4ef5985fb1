"""Output checks for one pass of each workload.

Each check returns a list of (step index, problem) pairs, so a failure counts
against the command that wrote the output. The references here are the
benchmark's own: a (distance, id) sort over every other feature vector, the
KKT conditions of the simplex-constrained ridge problem, sums recomputed from
the archive, and the stub embedding rebuilt from its definition.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from collections import Counter
from pathlib import Path

import numpy as np

from planted import reference_candidates

Problems = list[tuple[int, str]]

REFERENCE_TARGETS = 20
WEIGHT_SUM_TOL = 1e-6
EFFECT_TOL = 1e-9
RHO_TOL = 1e-9
KKT_TOL = 1e-6


def _jsonl(path: Path) -> list[dict]:
    with path.open(encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _sign(x: float) -> int:
    return (x > 0) - (x < 0)


def _reference_problems(seed: int, comps: dict[str, dict], features: dict[str, np.ndarray],
                        cfg) -> list[str]:
    """Candidates, weights and rho of seeded targets against the references."""
    ids = sorted(features)
    mat = np.stack([features[i] for i in ids])
    rng = np.random.default_rng([seed, 4])
    out = []
    for k in sorted(rng.choice(len(ids), size=REFERENCE_TARGETS, replace=False)):
        tid = ids[k]
        comp = comps[tid]
        dists = np.linalg.norm(mat - mat[k], axis=1)
        kept, scale = reference_candidates(dists, ids, k, cfg)
        if set(comp["weights"]) != {ids[j] for j in kept}:
            out.append(f"{tid}: candidates differ from the (distance, id) sort")
            continue
        cand = sorted(comp["weights"])
        a = np.stack([features[c] for c in cand], axis=1)
        w = np.array([comp["weights"][c] for c in cand])
        if comp["solver_status"] == "optimal":
            grad = 2.0 * (a.T @ (a @ w - mat[k]) + cfg.ridge * w)
            support = w > 0.0
            nu = float(grad[support].mean())
            tol = KKT_TOL * (1.0 + float(np.abs(grad).max()))
            if (np.abs(grad[support] - nu).max() > tol
                    or (grad[~support] < nu - tol).any()):
                out.append(f"{tid}: weights violate the KKT conditions")
        rho = float(np.linalg.norm(mat[k] - a @ w)) / scale
        if abs(rho - comp["rho"]) > RHO_TOL * (1.0 + rho):
            out.append(f"{tid}: rho {comp['rho']!r} but recomputed {rho!r}")
    return out


def check_atlas(ctx, pass_dir: Path, records: list[dict]) -> Problems:
    """ingest (step 0), embed (1), evaluate (2), calibrate (3) and atlas (4)."""
    problems: Problems = _check_ingest_embed(ctx, pass_dir, records)
    n = len(ctx.archive)
    lam = ctx.cfg.lambda_
    effects = {e.id: float(e.effect_size) for e in ctx.archive}

    ev = pass_dir / "evaluate"
    report = json.loads((ev / "report.json").read_text(encoding="utf-8"))
    results = _jsonl(ev / "results.jsonl")
    if len(results) != n or report["n_total"] != n:
        problems.append((2, f"{len(results)} results for {n} targets"))
    if any(r["composable"] != (r["rho"] <= lam) for r in results):
        problems.append((2, "composable differs from rho <= lambda"))
    n_comp = sum(r["composable"] for r in results)
    if report["n_composable"] != n_comp or abs(report["coverage"] - n_comp / n) > 1e-12:
        problems.append((2, "report counts disagree with results.jsonl"))

    cal = json.loads((pass_dir / "calibrate" / "calibration.json").read_text(encoding="utf-8"))
    if cal["chosen_lambda"] not in cal["grid"] or \
            f"chosen lambda: {cal['chosen_lambda']:g}" not in records[3]["stdout"]:
        problems.append((3, "chosen lambda is off the grid or not the one printed"))

    at = pass_dir / "atlas"
    comps = {c["target_id"]: c for c in _jsonl(at / "compositions.jsonl")}
    if len(comps) != n:
        problems.append((4, f"{len(comps)} compositions for {n} targets"))
    expected_status = {}
    for tid, c in comps.items():
        w = c["weights"]
        if min(w.values()) < 0.0 or abs(math.fsum(w.values()) - 1.0) > WEIGHT_SUM_TOL:
            problems.append((4, f"{tid}: weights are off the simplex"))
        composed = math.fsum(v * effects[k] for k, v in w.items() if v > 0.0)
        if c["composed_effect"] is None or abs(c["composed_effect"] - composed) > EFFECT_TOL:
            problems.append((4, f"{tid}: composed_effect is not the weighted sum of effects"))
        if c["composable"] != (c["rho"] <= lam):
            problems.append((4, f"{tid}: composable differs from rho <= lambda"))
        if not c["composable"]:
            expected_status[tid] = "gap"
        elif _sign(composed) == _sign(effects[tid]):
            expected_status[tid] = "link"
        else:
            expected_status[tid] = "conflict"
    doc = json.loads((at / "atlas.json").read_text(encoding="utf-8"))
    status = {node["id"]: node["status"] for node in doc["nodes"]}
    if status != expected_status:
        problems.append((4, "atlas.json routes differ from the compositions"))
    counts = Counter(status.values())
    printed = re.search(r"links: (\d+)\s+conflicts: (\d+)\s+gaps: (\d+)", records[4]["stdout"])
    if (counts["link"] + counts["conflict"] + counts["gap"] != n or printed is None
            or [int(x) for x in printed.groups()]
            != [counts["link"], counts["conflict"], counts["gap"]]):
        problems.append((4, "link + conflict + gap counts disagree"))
    if (at / "results.jsonl").read_bytes() != (ev / "results.jsonl").read_bytes():
        problems.append((4, "results.jsonl differs between evaluate and atlas"))
    problems += [(4, p) for p in _reference_problems(ctx.seed, comps, ctx.features, ctx.cfg)]
    return problems


def check_bridge(ctx, pass_dir: Path, records: list[dict]) -> Problems:
    """bridge (step 0): composes at round 3 with the planted proposals."""
    from exatlas.composer import assess

    fx = ctx.bridge
    problems: list[str] = []
    doc = json.loads((pass_dir / "bridge" / "bridge.json").read_text(encoding="utf-8"))
    rounds = doc["rounds_run"]
    if (doc["target_id"], rounds, doc["final_composable"]) != (fx.target_id, 3, True):
        problems.append(f"bridge ended {doc['target_id']} rounds={rounds} "
                        f"composable={doc['final_composable']}")
    trace = doc["isolated_ratio_trace"]
    if len(trace) != rounds + 1 or not all(0.0 <= x <= 1.0 for x in trace):
        problems.append(f"isolated-ratio trace {trace} for {rounds} rounds")
    if len(doc["proposals"]) != fx.n_proposals:
        problems.append(f"{len(doc['proposals'])} proposals, planted {fx.n_proposals}")
    prompts = sorted((pass_dir / "bridge" / "audit").glob("*_prompt.txt"))
    sent = [hashlib.sha256(p.read_bytes()).hexdigest() for p in prompts]
    if sent != list(fx.transcript):
        problems.append("audited prompts are not the planted ones")
    if f"target {fx.target_id}: rounds=3 composable=True" not in records[0]["stdout"]:
        problems.append("printed summary does not match")
    # Hypothetical nodes carry weight in the final pool but never feed an effect.
    target = ctx.archive.get(fx.target_id)
    pool = {i: v for i, v in ctx.features.items() if i != fx.target_id}
    effects = {e.id: float(e.effect_size) for e in ctx.archive}
    comp = assess(target, ctx.features[fx.target_id], {**pool, **fx.hypothetical},
                  effects, ctx.cfg)
    if not any(w > 0 for k, w in comp.weights.items() if k in fx.hypothetical):
        problems.append("no hypothetical node carries weight in the final pool")
    if comp.composed_effect is not None:
        problems.append("a hypothetical node fed an effect prediction")
    return [(0, p) for p in problems]


def stub_feature(text_t: str, text_o: str, dim: int, seed: int) -> np.ndarray:
    """The deterministic stub embedding, rebuilt from its definition."""
    def embed(text: str) -> np.ndarray:
        digest = hashlib.sha256(f"{seed}:{text}".encode("utf-8")).digest()
        v = np.random.default_rng(int.from_bytes(digest, "big")).standard_normal(dim)
        return v / np.linalg.norm(v)

    t, o = embed(text_t), embed(text_o)
    return np.concatenate([t, o, t * o])


def _check_ingest_embed(ctx, pass_dir: Path, records: list[dict]) -> Problems:
    """ingest (step 0) and embed (step 1) of the planted archive's texts."""
    from exatlas.representation import read_vector_file

    problems: Problems = []
    n = len(ctx.archive)
    normalized = _jsonl(pass_dir / "ingest" / "archive.jsonl")
    if normalized != [e.to_record() for e in ctx.archive] or \
            f"ingested {n} records" not in records[0]["stdout"]:
        problems.append((0, "normalized archive differs from the input"))
    vectors = read_vector_file(pass_dir / "embed" / "vectors.jsonl")
    width = 3 * ctx.dim
    if list(vectors) != list(ctx.archive.ids()) or \
            any(v.shape != (width,) for v in vectors.values()):
        problems.append((1, f"expected {n} rows of length {width}"))
    rng = np.random.default_rng([ctx.seed, 5])
    for k in rng.choice(n, size=5, replace=False):
        exp = ctx.archive.experiments[int(k)]
        want = stub_feature(exp.treatment_text, exp.outcome_text, ctx.dim, ctx.seed)
        if exp.id not in vectors or not np.array_equal(vectors[exp.id], want):
            problems.append((1, f"{exp.id}: vector is not the stub feature"))
    if f"wrote {n} feature vectors of length {width}" not in records[1]["stdout"]:
        problems.append((1, "printed summary does not match"))
    return problems
