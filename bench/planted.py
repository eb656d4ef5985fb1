"""Planted inputs for the benchmark, all derived from the benchmark's --seed.

Latent points come from ``theory_lab.sample_world``. Fixed seeded linear maps
lift each point into a treatment and an outcome embedding; a per-experiment
off-manifold noise of scale 0.6*u^2 (u uniform) leaves some experiments near
the manifold, where neighbours reconstruct them, and pushes others off it,
where they become gaps. Effects are the world's quadratic surface plus its
bounded noise, taken about the surface's value at the origin so that both
signs are common and composable targets split into links and conflicts. Features
are ``build_feature(t, o)``, exactly as the program builds them.

Input files are written here in the documented formats (JSON lines), not with
the program's writers, so the inputs stay fixed while the program changes.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from exatlas import theory_lab
from exatlas.archive import Archive, Experiment
from exatlas.composer import ComposerConfig, assess, solve_weights
from exatlas.generators import build_bridge_prompt, parse_bridge_response, prompt_hash
from exatlas.representation import build_feature

LATENT_DIM = 16
NOISE_SCALE = 0.6
CURVATURE_BOUND = 1.0
EFFECT_NOISE_BOUND = 0.1
BRIDGE_ROUNDS = 3
LITERATURE_SIZE = 5  # bridge_loop's default

_TREATMENTS = ("peer coaching", "goal setting", "flexible scheduling", "public recognition",
               "mentoring circles", "team rotation", "skill workshops", "quiet hours",
               "open-book management", "wellness stipends")
_OUTCOMES = ("retention", "creativity", "task accuracy", "helping behaviour",
             "job satisfaction", "learning speed", "absenteeism", "voice behaviour",
             "trust in leaders", "sales volume")
_QUALIFIERS = ("self-reported", "supervisor-rated", "objective", "weekly", "quarterly",
               "team-level", "individual", "peer-rated", "long-run", "short-run")


class PlantingError(Exception):
    """The seed gave inputs that do not have the planted property."""


@dataclass(frozen=True)
class Planted:
    archive: Archive
    features: dict[str, np.ndarray]
    embeddings: dict[str, tuple[np.ndarray, np.ndarray]]


@dataclass(frozen=True)
class BridgeFixture:
    target_id: str
    transcript: dict[str, str]          # prompt hash -> response
    proposal_vectors: dict[str, np.ndarray]
    hypothetical: dict[str, np.ndarray]  # id -> feature, as bridge_loop names them
    n_proposals: int


def _unit_rows(x: np.ndarray) -> np.ndarray:
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def planted_archive(seed: int, n: int, dim: int) -> Planted:
    world = theory_lab.sample_world(seed, n, LATENT_DIM, CURVATURE_BOUND,
                                    EFFECT_NOISE_BOUND)
    rng = np.random.default_rng([seed, 1])
    lifts = rng.standard_normal((2, LATENT_DIM, dim))
    offsets = rng.standard_normal((2, dim))
    # Per-component noise; sqrt(LATENT_DIM) puts it on the scale of the lift.
    scale = NOISE_SCALE * np.sqrt(LATENT_DIM) * rng.uniform(size=n) ** 2
    t = _unit_rows(world.points @ lifts[0] + offsets[0]
                   + scale[:, None] * rng.standard_normal((n, dim)))
    o = _unit_rows(world.points @ lifts[1] + offsets[1]
                   + scale[:, None] * rng.standard_normal((n, dim)))
    # Distinct treatments; outcomes from a vocabulary of 100, so about a third
    # of the 2n texts repeat one seen before and text dedupe has work to save.
    vocabulary = [f"{q} {o}" for q in _QUALIFIERS for o in _OUTCOMES]
    outcomes = np.random.default_rng([seed, 2]).integers(len(vocabulary), size=n)
    experiments = []
    features: dict[str, np.ndarray] = {}
    embeddings: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for i in range(n):
        exp_id = f"exp-{i:04d}"
        experiments.append(Experiment(
            id=exp_id,
            treatment_text=f"{_TREATMENTS[i % 10]} variant {i}",
            outcome_text=vocabulary[int(outcomes[i])],
            context_text=f"Planted field study {i} of seed {seed}.",
            effect_size=world.effect(i) - world.intercept,
        ))
        features[exp_id] = build_feature(t[i], o[i])
        embeddings[exp_id] = (t[i], o[i])
    return Planted(Archive(tuple(experiments)), features, embeddings)


def reference_candidates(dists: np.ndarray, ids: list[str], k: int,
                         cfg: ComposerConfig) -> tuple[list[int], float]:
    """Candidates of target ``k`` by a plain (distance, id) sort of the other
    rows, cut at radius_factor times the median distance and at max_candidates."""
    others = [j for j in range(len(ids)) if j != k]
    scale = float(np.median(dists[others]))
    order = sorted((float(dists[j]), ids[j], j) for j in others)
    kept = [j for d, _, j in order if d <= cfg.radius_factor * scale]
    return kept[: cfg.max_candidates], scale


def loo_rho(planted: Planted, cfg: ComposerConfig) -> dict[str, float]:
    """Every target's normalized residual, with reference candidates and the
    program's solver; distances come from one Gram matrix."""
    ids = list(planted.archive.ids())
    mat = np.stack([planted.features[i] for i in ids])
    sq = np.einsum("ij,ij->i", mat, mat)
    all_dists = np.sqrt(np.maximum(sq[:, None] + sq[None, :] - 2.0 * (mat @ mat.T), 0.0))
    out: dict[str, float] = {}
    for k, tid in enumerate(ids):
        kept, scale = reference_candidates(all_dists[k], ids, k, cfg)
        w, _ = solve_weights(mat[k], [mat[j] for j in kept], cfg.ridge)
        out[tid] = float(np.linalg.norm(mat[k] - mat[kept].T @ w)) / scale
    return out


def _proposal_texts(rnd: int, k: int) -> tuple[str, str]:
    return (f"{_TREATMENTS[(rnd + k) % 10]} pilot r{rnd}k{k}",
            f"{_QUALIFIERS[(rnd * 3 + k) % 10]} {_OUTCOMES[k % 10]} r{rnd}k{k}")


def plant_bridge(seed: int, planted: Planted, cfg: ComposerConfig) -> BridgeFixture:
    """Script a bridge run on the gap with the highest rho that composes at round 3.

    Rounds 1 and 2 propose two unrelated experiments each; round 3 adds one whose
    embeddings sit next to the target's. The rounds are replayed here with the
    program's prompt builder and ``assess``, so the transcript is keyed by the
    prompts the program will send, and the planting is verified round by round.
    """
    rho = loo_rho(planted, cfg)
    gaps = [(r, i) for i, r in rho.items() if r > cfg.lambda_]
    if not gaps:
        raise PlantingError("no gap target")
    target_id = max(gaps)[1]
    archive = planted.archive
    target = archive.get(target_id)
    x_t = planted.features[target_id]
    real_pool = {i: v for i, v in planted.features.items() if i != target_id}
    rng = np.random.default_rng([seed, 3])
    dim = x_t.size // 3
    t_target, o_target = planted.embeddings[target_id]

    comp = assess(target, x_t, real_pool, None, cfg)
    transcript: dict[str, str] = {}
    vectors: dict[str, np.ndarray] = {}
    hypothetical: dict[str, np.ndarray] = {}
    known: list[str] = []
    n_proposals = 0
    for rnd in range(1, BRIDGE_ROUNDS + 1):
        nearest = [c for c in comp.neighborhood.candidate_ids if c in real_pool]
        request = build_bridge_prompt(target, [archive.get(c) for c in nearest[:LITERATURE_SIZE]],
                                      known)
        pairs = [_proposal_texts(rnd, k) for k in range(2)]
        response = "; ".join(f"{t} positively impacts {o}." for t, o in pairs)
        parsed = parse_bridge_response(response, round=rnd)
        if [(p.parsed_treatment, p.parsed_outcome) for p in parsed] != pairs:
            raise PlantingError(f"round {rnd} reply does not parse as planted")
        transcript[prompt_hash(request.prompt)] = response
        for k, (t_text, o_text) in enumerate(pairs):
            t_vec, o_vec = _unit_rows(rng.standard_normal((2, dim)))
            if rnd == BRIDGE_ROUNDS and k == 0:
                t_vec, o_vec = _unit_rows(np.stack([t_target, o_target])
                                          + 1e-3 * rng.standard_normal((2, dim)))
            vectors[t_text], vectors[o_text] = t_vec, o_vec
            hypothetical[f"hypothetical:{target_id}:{rnd}:{k}"] = build_feature(t_vec, o_vec)
        n_proposals += len(parsed)
        known.extend(p.text for p in parsed)
        comp = assess(target, x_t, {**real_pool, **hypothetical}, None, cfg)
        if comp.composable != (rnd == BRIDGE_ROUNDS):
            raise PlantingError(f"target composable={comp.composable} at round {rnd}")
    return BridgeFixture(target_id, transcript, vectors, hypothetical, n_proposals)


def _write_lines(path: Path, records) -> None:
    with path.open("w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, ensure_ascii=False))
            fh.write("\n")


def write_archive(path: Path, archive: Archive) -> None:
    _write_lines(path, (e.to_record() for e in archive))


def write_vectors(path: Path, vectors: dict[str, np.ndarray]) -> None:
    _write_lines(path, ({"id": k, "values": v.tolist()} for k, v in vectors.items()))


def write_transcript(path: Path, transcript: dict[str, str]) -> None:
    _write_lines(path, ({"prompt_hash": h, "response": r} for h, r in transcript.items()))


def file_digest(path: Path) -> str:
    h = hashlib.sha256()
    with path.open("rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()
