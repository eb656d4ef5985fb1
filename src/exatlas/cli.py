"""Command-line surface: ingest, embed, calibrate, evaluate, atlas, bridge,
reconcile, and the synthetic bound sweep.

Configuration precedence is flag > environment > config file > default; the
environment supplies only the API keys (EXATLAS_EMBED_KEY, EXATLAS_CHAT_KEY).
Every command writes machine-readable output next to its human-readable one,
and identical inputs produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path
from typing import Any, Mapping, Sequence

import numpy as np

from . import atlas as atlas_mod
from . import evaluator as evaluator_mod
from . import generators as generators_mod
from . import theory_lab
from .archive import Archive, ArchiveError, load_archive, save_archive
from .composer import ComposerConfig, ComposerError
from .representation import (
    DEFAULT_REMOTE_MODEL,
    DeterministicStubProvider,
    EmbeddingError,
    RemoteEmbeddingProvider,
    VectorFileProvider,
    feature_matrix,
    read_vector_file,
    write_vector_file,
)

_TOY_ARCHIVE = "data/toy_archive.jsonl"

# Every setting a --config file may hold (the names that _setting reads) and
# the type of its value.
_CONFIG_TYPES: dict[str, type] = {
    **dict.fromkeys(("cache_dir", "chat", "grid", "provider", "stub_transcript",
                     "vectors"), str),
    **dict.fromkeys(("jobs", "max_candidates", "max_rounds", "seed"), int),
    **dict.fromkeys(("lambda_", "radius_factor", "relax", "ridge"), float),
}
_TYPE_NAMES = {str: "a string", int: "an integer", float: "a finite number"}
CONFIG_KEYS = frozenset(_CONFIG_TYPES)
# The most points a calibrate --grid may have; the default grid has 291.
MAX_GRID_POINTS = 100_000


class CliError(Exception):
    pass


def toy_archive_path() -> Path:
    from importlib import resources

    return Path(str(resources.files("exatlas") / _TOY_ARCHIVE))


def _parse_kv(spec: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for part in spec.split(","):
        if not part:
            continue
        if "=" not in part:
            raise CliError(f"expected key=value in provider spec, got {part!r}")
        k, v = part.split("=", 1)
        out[k.strip()] = v.strip()
    return out


def parse_embedding_provider(spec: str, seed: int, cache_dir: str | None = None):
    """Build a provider from a spec string.

    Forms: ``stub``, ``stub:d=16,seed=3``, ``file:PATH``,
    ``remote:endpoint=URL,model=NAME,d=768,batch=32``.
    """
    kind, _, rest = spec.partition(":")
    if kind == "stub":
        kv = _parse_kv(rest)
        return DeterministicStubProvider(
            dimension=int(kv.get("d", 32)),
            seed=int(kv.get("seed", seed)),
        )
    if kind == "file":
        if not rest:
            raise CliError("file provider needs a path: file:PATH")
        return VectorFileProvider(rest)
    if kind == "remote":
        kv = _parse_kv(rest)
        if "endpoint" not in kv:
            raise CliError("remote provider needs endpoint=URL")
        return RemoteEmbeddingProvider(
            endpoint=kv["endpoint"],
            model=kv.get("model", DEFAULT_REMOTE_MODEL),
            dimension=int(kv.get("d", 768)),
            batch_size=int(kv.get("batch", 32)),
            cache_dir=cache_dir,
        )
    raise CliError(f"unknown embedding provider kind {kind!r}")


def parse_chat_provider(spec: str, transcript: str | None):
    """Chat provider spec: ``stub`` (with --stub-transcript) or
    ``remote:endpoint=URL,model=NAME,temperature=0``."""
    kind, _, rest = spec.partition(":")
    if kind == "stub":
        if not transcript:
            raise CliError("stub chat provider needs --stub-transcript PATH")
        return generators_mod.ScriptedStubChat.from_file(transcript)
    if kind == "remote":
        kv = _parse_kv(rest)
        if "endpoint" not in kv or "model" not in kv:
            raise CliError("remote chat provider needs endpoint=URL,model=NAME")
        return generators_mod.RemoteChatProvider(
            endpoint=kv["endpoint"],
            model=kv["model"],
            temperature=float(kv.get("temperature", 0.0)),
            max_retries=int(kv.get("retries", 3)),
        )
    raise CliError(f"unknown chat provider kind {kind!r}")


def _load_config_file(path: str | None) -> dict[str, Any]:
    if not path:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as e:
            raise CliError(f"config file {path}: invalid JSON: {e}") from e
        except RecursionError:
            raise CliError(f"config file {path}: invalid JSON: nested too deeply") from None
        except UnicodeDecodeError as e:
            raise CliError(f"config file {path}: not UTF-8 text: {e.reason}") from None
    if not isinstance(doc, dict):
        raise CliError("config file must hold a JSON object")
    unknown = sorted(set(doc) - CONFIG_KEYS)
    if unknown:
        raise CliError(f"unknown key in config file {path}: "
                       + ", ".join(repr(k) for k in unknown))
    for key, kind in _CONFIG_TYPES.items():
        if key in doc and not _is_config_value(doc[key], kind):
            raise CliError(f"config file {path}: {key!r} must be {_TYPE_NAMES[kind]}")
    return doc


def _is_config_value(value: Any, kind: type) -> bool:
    if isinstance(value, bool):
        return False
    if kind is not float:
        return isinstance(value, kind)
    try:
        return isinstance(value, (int, float)) and math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


def _setting(args, config: Mapping[str, Any], name: str, default):
    value = getattr(args, name, None)
    if value is not None:
        return value
    if name in config:
        return config[name]
    return default


def _composer_config(args, config: Mapping[str, Any]) -> ComposerConfig:
    default = ComposerConfig()
    return ComposerConfig(
        radius_factor=float(_setting(args, config, "radius_factor", default.radius_factor)),
        max_candidates=int(_setting(args, config, "max_candidates", default.max_candidates)),
        ridge=float(_setting(args, config, "ridge", default.ridge)),
        lambda_=float(_setting(args, config, "lambda_", default.lambda_)),
    )


def _features_for(args, config: Mapping[str, Any], archive: Archive) -> dict[str, np.ndarray]:
    """Feature vectors either from a precomputed --vectors file or a provider."""
    vectors = _setting(args, config, "vectors", None)
    if vectors:
        feats = read_vector_file(vectors)
        missing = [i for i in archive.ids() if i not in feats]
        if missing:
            raise CliError(f"vector file lacks features for ids: {missing[:5]}")
        return feats
    provider = parse_embedding_provider(
        _setting(args, config, "provider", "stub"),
        seed=int(_setting(args, config, "seed", 0)),
        cache_dir=_setting(args, config, "cache_dir", None),
    )
    return feature_matrix(archive, provider,
                          jobs=int(_setting(args, config, "jobs", 1))).features


def _write_json(path: Path, doc: Any) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, ensure_ascii=False, sort_keys=True, indent=2) + "\n",
                    encoding="utf-8")


def _write_jsonl(path: Path, records) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, ensure_ascii=False, sort_keys=True))
            fh.write("\n")


def cmd_ingest(args, config) -> int:
    arc = load_archive(args.archive)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        save_archive(arc, args.out)
    n_enriched = sum(1 for e in arc if e.enriched_treatment and e.enriched_outcome)
    print(f"ingested {len(arc)} records from {args.archive}")
    print(f"enriched: {n_enriched}/{len(arc)}")
    if len(arc) == 0:
        print("warning: archive is empty", file=sys.stderr)
    if args.out:
        print(f"normalized archive written to {args.out}")
    return 0


def cmd_embed(args, config) -> int:
    arc = load_archive(args.archive)
    provider = parse_embedding_provider(
        _setting(args, config, "provider", "stub"),
        seed=int(_setting(args, config, "seed", 0)),
        cache_dir=_setting(args, config, "cache_dir", None),
    )
    fm = feature_matrix(arc, provider, jobs=int(_setting(args, config, "jobs", 1)))
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_vector_file(out, fm.features)
    print(f"wrote {len(fm.features)} feature vectors of length {fm.feature_dim} to {out}")
    for exp_id in arc.ids():
        if not fm.used_enrichment[exp_id]:
            print(f"raw-fallback: {exp_id}")
    return 0


def _loo_results(args, config, arc: Archive, cfg: ComposerConfig):
    features = _features_for(args, config, arc)
    return evaluator_mod.loo_run(arc, features, cfg), features


def cmd_evaluate(args, config) -> int:
    arc = load_archive(args.archive)
    cfg = _composer_config(args, config)
    results, _ = _loo_results(args, config, arc, cfg)
    report = evaluator_mod.build_report(results, lambda_used=cfg.lambda_)
    print(report.format_table())
    if args.out:
        out = Path(args.out)
        _write_json(out / "report.json", report.to_record())
        _write_jsonl(out / "results.jsonl", (r.to_record() for r in results))
    return 0


def _parse_grid(spec: str | None) -> Sequence[float]:
    if not spec:
        return evaluator_mod.default_grid()
    try:
        lo, hi, step = (float(x) for x in spec.split(":"))
    except ValueError as e:
        raise CliError(f"--grid expects LO:HI:STEP, got {spec!r}") from e
    if not all(math.isfinite(v) for v in (lo, hi, step)):
        raise CliError(f"--grid values must be finite, got {spec!r}")
    if step <= 0:
        raise CliError(f"--grid STEP must be positive, got {spec!r}")
    if hi < lo:
        raise CliError(f"--grid HI must not be below LO, got {spec!r}")
    if (hi - lo) / step + 1 > MAX_GRID_POINTS:
        raise CliError(f"--grid has more than {MAX_GRID_POINTS} points, got {spec!r}")
    return evaluator_mod.check_grid(evaluator_mod.default_grid(lo, hi, step))


def cmd_calibrate(args, config) -> int:
    arc = load_archive(args.archive)
    cfg = _composer_config(args, config)
    grid = _parse_grid(_setting(args, config, "grid", None))
    results, _ = _loo_results(args, config, arc, cfg)
    curve = evaluator_mod.calibrate_lambda(arc, {}, cfg, grid, results=results)
    print(f"chosen lambda: {curve.chosen_lambda:g}")
    if args.out:
        out = Path(args.out)
        _write_json(out / "calibration.json", curve.to_record())
        out.mkdir(parents=True, exist_ok=True)
        with (out / "curve.csv").open("w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["lambda", "coverage", "mse", "scaled_mse", "objective"])
            for row in zip(curve.grid, curve.coverage_at, curve.mse_at,
                           curve.scaled_mse_at, curve.objective_at):
                writer.writerow(["" if v is None else repr(float(v)) for v in row])
    return 0


def cmd_atlas(args, config) -> int:
    arc = load_archive(args.archive)
    cfg = _composer_config(args, config)
    results, _ = _loo_results(args, config, arc, cfg)
    outcomes = atlas_mod.route_results(results)
    effects = {e.id: float(e.effect_size) for e in arc}
    relax = float(_setting(args, config, "relax", 1.5))
    conflicts = atlas_mod.mine_conflicts(cfg=cfg, relax_factor=relax, results=results)
    n_link = sum(isinstance(o, atlas_mod.Link) for o in outcomes)
    n_conf = sum(isinstance(o, atlas_mod.Conflict) for o in outcomes)
    n_gap = sum(isinstance(o, atlas_mod.Gap) for o in outcomes)
    print(f"links: {n_link}  conflicts: {n_conf}  gaps: {n_gap}")
    print(f"conflicts at relax={relax:g}: {len(conflicts)}")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        atlas_mod.export_graph(outcomes, effects,
                               json_path=out / "atlas.json",
                               dot_path=out / "atlas.dot")
        _write_jsonl(out / "compositions.jsonl",
                     (r.composition.to_record() for r in results))
        _write_jsonl(out / "results.jsonl", (r.to_record() for r in results))
        _write_jsonl(out / "conflicts.jsonl",
                     (atlas_mod.conflict_to_record(c) for c in conflicts))
    return 0


def cmd_bridge(args, config) -> int:
    arc = load_archive(args.archive)
    cfg = _composer_config(args, config)
    features = _features_for(args, config, arc)
    target = arc.get(args.target)
    provider = parse_embedding_provider(
        _setting(args, config, "provider", "stub"),
        seed=int(_setting(args, config, "seed", 0)),
        cache_dir=_setting(args, config, "cache_dir", None),
    )
    chat = parse_chat_provider(_setting(args, config, "chat", "stub"),
                               _setting(args, config, "stub_transcript", None))
    out = Path(args.out) if args.out else None
    if out is not None:
        chat = generators_mod.AuditingChat(chat, out / "audit")
    result = generators_mod.bridge_loop(
        target, arc, features, provider, chat, cfg,
        max_rounds=int(_setting(args, config, "max_rounds",
                                generators_mod.DEFAULT_MAX_ROUNDS)),
    )
    print(f"target {result.target_id}: rounds={result.rounds_run} "
          f"composable={result.final_composable}")
    print("isolated ratio trace: "
          + ", ".join(f"{x:.4f}" for x in result.isolated_ratio_trace))
    if out is not None:
        _write_json(out / "bridge.json", result.to_record())
    return 0


def cmd_reconcile(args, config) -> int:
    arc = load_archive(args.archive)
    cfg = _composer_config(args, config)
    results, _ = _loo_results(args, config, arc, cfg)
    relax = float(_setting(args, config, "relax", 1.0))
    conflicts = {c.target_id: c for c in
                 atlas_mod.mine_conflicts(cfg=cfg, relax_factor=relax, results=results)}
    if args.target not in conflicts:
        print(f"target {args.target!r} is not a conflict at relax={relax:g}",
              file=sys.stderr)
        return 2
    conflict = conflicts[args.target]
    sources = [arc.get(i) for i in conflict.source_weights]
    chat = parse_chat_provider(_setting(args, config, "chat", "stub"),
                               _setting(args, config, "stub_transcript", None))
    out = Path(args.out) if args.out else None
    if out is not None:
        chat = generators_mod.AuditingChat(chat, out / "audit")
    request = generators_mod.build_reconciliation_prompt(conflict, sources,
                                                         arc.get(args.target))
    response = chat.complete(request)
    needed, _ = generators_mod.parse_reconciliation_response(response)
    print(f"reconciliation needed: {needed}")
    if out is not None:
        _write_json(out / "reconciliation.json", {
            "target_id": conflict.target_id,
            "relax_factor": relax,
            "needed": needed,
            "response": response,
        })
    return 0


def cmd_theory_check(args, config) -> int:
    rows = theory_lab.bound_sweep(base_seed=int(_setting(args, config, "seed", 0)))
    violations = [r for r in rows if not r.report.holds]
    residual_bad = [r for r in rows if not r.residual_ok]
    print(f"checked {len(rows)} triples: "
          f"{len(violations)} bound violations, "
          f"{len(residual_bad)} residual-floor violations")
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        with out.open("w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(theory_lab.CSV_HEADER)
            for row in rows:
                writer.writerow(row.to_csv_row())
        print(f"sweep written to {out}")
    return 0 if not violations and not residual_bad else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="exatlas",
        description="Compose archived experiment effects into an atlas of "
                    "links, conflicts, and gaps.",
    )
    parser.add_argument("--config", help="JSON config file (flags take precedence)")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, archive=True):
        if archive:
            p.add_argument("--archive", required=True, help="archive .jsonl path")
        p.add_argument("--vectors", help="precomputed feature-vector file")
        p.add_argument("--provider", help="embedding provider spec (default stub)")
        p.add_argument("--seed", type=int, help="seed for stub providers and sweeps")
        p.add_argument("--jobs", type=int, help="parallel embedding workers (default 1)")
        p.add_argument("--cache-dir", dest="cache_dir", help="embedding cache directory")
        p.add_argument("--lambda", dest="lambda_", type=float,
                       help=f"composability threshold (default {ComposerConfig.lambda_:g})")
        p.add_argument("--ridge", type=float,
                       help=f"ridge penalty (default {ComposerConfig.ridge:g})")
        p.add_argument("--radius-factor", dest="radius_factor", type=float)
        p.add_argument("--max-candidates", dest="max_candidates", type=int)

    p = sub.add_parser("ingest", help="validate and normalize an archive file")
    p.add_argument("--archive", required=True)
    p.add_argument("--out", help="normalized archive output path")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("embed", help="materialize the feature matrix to a vector file")
    common(p)
    p.add_argument("--out", required=True, help="output vector file")
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("evaluate", help="leave-one-out run and metrics table")
    common(p)
    p.add_argument("--out", help="output directory")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("calibrate", help="calibration curve and chosen threshold")
    common(p)
    p.add_argument("--grid", help="LO:HI:STEP (default 0.05:1.50:0.005)")
    p.add_argument("--out", help="output directory")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("atlas", help="route targets and export the atlas graph")
    common(p)
    p.add_argument("--relax", type=float, help="conflict-mining factor (default 1.5)")
    p.add_argument("--out", help="output directory")
    p.set_defaults(func=cmd_atlas)

    p = sub.add_parser("bridge", help="run the iterative bridge loop for a gap target")
    common(p)
    p.add_argument("--target", required=True, help="gap target experiment id")
    p.add_argument("--chat", help="chat provider spec (default stub)")
    p.add_argument("--stub-transcript", dest="stub_transcript",
                   help="scripted chat transcript file")
    p.add_argument("--max-rounds", dest="max_rounds", type=int)
    p.add_argument("--out", help="output directory")
    p.set_defaults(func=cmd_bridge)

    p = sub.add_parser("reconcile", help="build and send a reconciliation prompt")
    common(p)
    p.add_argument("--target", required=True, help="conflict target experiment id")
    p.add_argument("--relax", type=float, help="admit conflicts up to relax*lambda")
    p.add_argument("--chat", help="chat provider spec (default stub)")
    p.add_argument("--stub-transcript", dest="stub_transcript")
    p.add_argument("--out", help="output directory")
    p.set_defaults(func=cmd_reconcile)

    p = sub.add_parser("theory-check", help="run the synthetic error-bound sweep")
    p.add_argument("--seed", type=int, help="base seed (default 0)")
    p.add_argument("--out", help="output CSV path")
    p.set_defaults(func=cmd_theory_check)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config_file(args.config)
        return args.func(args, config)
    except (ArchiveError, EmbeddingError, ComposerError, evaluator_mod.EvaluatorError,
            generators_mod.ChatError, CliError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
