"""Command-line surface: ingest, embed, calibrate, evaluate, atlas, bridge,
reconcile, and the synthetic bound sweep.

:func:`build_parser` is the one table of settings: each option's name, type
and default. A ``--config`` JSON file may set any option but ``--archive``,
``--out`` and ``--target``, keyed by its dest (``lambda_``, ``cache_dir``, ...)
and typed as its flag, as that option's default: a flag wins over the file
and the file over the parser. The environment supplies only the API keys
(EXATLAS_EMBED_KEY, EXATLAS_CHAT_KEY), and the BLAS thread count, which is
one unless set (see below). Every command writes machine-readable
output next to its human-readable one, byte-identical for identical inputs.
"""

from __future__ import annotations

import argparse
import csv
import errno
import json
import math
import os
import sys
from collections import Counter
from pathlib import Path
from typing import Any, Sequence

# One BLAS thread unless the user sets another count, set before numpy loads
# OpenBLAS (or MKL), which reads these once: a second BLAS thread made no
# pass faster, and a process with one thread may split a pass across
# processes (composer._pipeline). The package's lazy exports keep numpy
# unloaded until here.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from . import atlas as atlas_mod
from . import evaluator as evaluator_mod
from . import generators as generators_mod
from . import theory_lab
from .archive import Archive, ArchiveError, load_archive, save_archive
from .composer import ComposerConfig, ComposerError, Features
from .representation import (
    DeterministicStubProvider,
    EmbeddingError,
    RemoteEmbeddingProvider,
    VectorFileProvider,
    embedding_texts,
    feature_matrix,
    read_vector_file,
    write_vector_file,
)

_TOY_ARCHIVE = "data/toy_archive.jsonl"

# Options that name a run's files or target rather than a setting.
_NOT_SETTINGS = frozenset({"help", "config", "archive", "out", "target"})
_TYPE_NAMES = {str: "a string", int: "an integer", float: "a finite number"}
# The most points a calibrate --grid may have; the default grid has 291.
MAX_GRID_POINTS = 100_000


class CliError(Exception):
    pass


def toy_archive_path() -> Path:
    from importlib import resources

    return Path(str(resources.files("exatlas") / _TOY_ARCHIVE))


def _spec_args(spec: str, rest: str, **keys: tuple[str, type]) -> dict[str, Any]:
    """Constructor arguments from ``rest``, the ``key=value,...`` list of the
    provider spec ``spec``: ``keys`` maps each key its kind takes to an
    argument name and type. A key left out keeps the constructor's default;
    an unknown or repeated key, or a value of the wrong type, is an error."""
    args: dict[str, Any] = {}
    for part in rest.split(","):
        if not part:
            continue
        if "=" not in part:
            raise CliError(f"expected key=value in provider spec, got {part!r}")
        key, value = (s.strip() for s in part.split("=", 1))
        if key not in keys:
            raise CliError(f"unknown key {key!r} in provider spec {spec!r}")
        arg, kind = keys[key]
        if arg in args:
            raise CliError(f"repeated key {key!r} in provider spec {spec!r}")
        try:
            args[arg] = kind(value)
            if kind is float and not math.isfinite(args[arg]):
                raise ValueError
        except ValueError:
            raise CliError(
                f"provider spec {spec!r}: {key} must be {_TYPE_NAMES[kind]}") from None
    return args


def _construct(spec: str, cls, **args):
    """``cls(**args)``; a setting out of range is an error naming ``spec``."""
    try:
        return cls(**args)
    except ValueError as e:
        raise CliError(f"provider spec {spec!r}: {e}") from None


def parse_embedding_provider(spec: str, seed: int, cache_dir: str | None = None):
    """Build a provider from a spec string.

    Forms: ``stub``, ``stub:d=16,seed=3``, ``file:PATH``,
    ``remote:endpoint=URL,model=NAME,d=768,batch=32``.
    """
    kind, _, rest = spec.partition(":")
    if kind == "stub":
        args = {"seed": seed}
        args.update(_spec_args(spec, rest, d=("dimension", int), seed=("seed", int)))
        return _construct(spec, DeterministicStubProvider, **args)
    if kind == "file":
        if not rest:
            raise CliError("file provider needs a path: file:PATH")
        return VectorFileProvider(rest)
    if kind == "remote":
        args = _spec_args(spec, rest, endpoint=("endpoint", str), model=("model", str),
                          d=("dimension", int), batch=("batch_size", int))
        if "endpoint" not in args:
            raise CliError("remote provider needs endpoint=URL")
        return _construct(spec, RemoteEmbeddingProvider, cache_dir=cache_dir, **args)
    raise CliError(f"unknown embedding provider kind {kind!r}")


def parse_chat_provider(spec: str, transcript: str | None):
    """Chat provider spec: ``stub`` (with --stub-transcript) or
    ``remote:endpoint=URL,model=NAME,temperature=0,retries=3``."""
    kind, _, rest = spec.partition(":")
    if kind == "stub":
        _spec_args(spec, rest)  # the stub takes no keys
        if not transcript:
            raise CliError("stub chat provider needs --stub-transcript PATH")
        return generators_mod.ScriptedStubChat.from_file(transcript)
    if kind == "remote":
        args = _spec_args(spec, rest, endpoint=("endpoint", str), model=("model", str),
                          temperature=("temperature", float), retries=("max_retries", int))
        if "endpoint" not in args or "model" not in args:
            raise CliError("remote chat provider needs endpoint=URL,model=NAME")
        return _construct(spec, generators_mod.RemoteChatProvider, **args)
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
        raise CliError(f"config file {path}: expected a JSON object")
    unknown = sorted(set(doc) - CONFIG_KEYS)
    if unknown:
        raise CliError(f"unknown key in config file {path}: "
                       + ", ".join(repr(k) for k in unknown))
    for key in sorted(doc):
        kind = _SETTINGS[key]
        if not _is_config_value(doc[key], kind):
            raise CliError(f"config file {path}: {key!r} must be {_TYPE_NAMES[kind]}")
    return {key: _SETTINGS[key](value) for key, value in doc.items()}


def _is_config_value(value: Any, kind: type) -> bool:
    if isinstance(value, bool):
        return False
    if kind is not float:
        return isinstance(value, kind)
    try:
        return isinstance(value, (int, float)) and math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


def _composer_config(args) -> ComposerConfig:
    return ComposerConfig(radius_factor=args.radius_factor, max_candidates=args.max_candidates,
                          ridge=args.ridge, lambda_=args.lambda_)


def _embedding_provider(args):
    return parse_embedding_provider(args.provider, seed=args.seed, cache_dir=args.cache_dir)


def _features_for(args, archive: Archive, provider=None) -> Features:
    """Feature vectors from a precomputed --vectors file, in its order, or from
    ``provider`` (else one built from the arguments), in archive order."""
    if args.vectors:
        return read_vector_file(args.vectors)
    return feature_matrix(archive, provider or _embedding_provider(args))


def _out_file(path: str) -> Path:
    """The --out file, its directory made before any work so that a bad path fails first."""
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    if out.is_dir():
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    return out


def _out_dir(args) -> Path | None:
    """The --out directory, made before any work so that a bad path fails first."""
    if not args.out:
        return None
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path: Path, doc: Any) -> None:
    """Write ``doc`` as indented JSON with sorted keys; a dataclass record in it
    is written as its fields, so a record's file holds every field it has."""
    path.write_text(json.dumps(doc, ensure_ascii=False, sort_keys=True, indent=2,
                               default=vars) + "\n", encoding="utf-8")


def _write_csv(path: Path, header: Sequence[str], rows) -> None:
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_jsonl(path: Path, records) -> None:
    with path.open("w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, ensure_ascii=False, sort_keys=True))
            fh.write("\n")


def cmd_ingest(args) -> int:
    arc = load_archive(args.archive)
    if args.out:
        save_archive(arc, _out_file(args.out))
    n_enriched = sum(embedding_texts(e)[2] for e in arc)
    print(f"ingested {len(arc)} records from {args.archive}")
    print(f"enriched: {n_enriched}/{len(arc)}")
    if len(arc) == 0:
        print("warning: archive is empty", file=sys.stderr)
    if args.out:
        print(f"normalized archive written to {args.out}")
    return 0


def cmd_embed(args) -> int:
    arc = load_archive(args.archive)
    out = _out_file(args.out)
    features = feature_matrix(arc, _embedding_provider(args))
    write_vector_file(out, features)
    print(f"wrote {len(features)} feature vectors of length "
          f"{features.matrix.shape[1]} to {out}")
    for exp in arc:
        if not embedding_texts(exp)[2]:
            print(f"raw-fallback: {exp.id}")
    return 0


def cmd_evaluate(args) -> int:
    arc = load_archive(args.archive)
    cfg = _composer_config(args)
    out = _out_dir(args)
    results = evaluator_mod.loo_run(arc, _features_for(args, arc), cfg)
    report = evaluator_mod.build_report(results, lambda_used=cfg.lambda_)
    print(report.format_table())
    if out is not None:
        _write_json(out / "report.json", report)
        _write_jsonl(out / "results.jsonl", (r.to_record() for r in results))
    return 0


def _parse_grid(spec: str) -> Sequence[float]:
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


def cmd_calibrate(args) -> int:
    arc = load_archive(args.archive)
    cfg = _composer_config(args)
    grid = _parse_grid(args.grid)
    out = _out_dir(args)
    results = evaluator_mod.loo_run(arc, _features_for(args, arc), cfg)
    curve = evaluator_mod.calibrate_lambda(results, grid)
    print(f"chosen lambda: {curve.chosen_lambda:g}")
    if out is not None:
        _write_json(out / "calibration.json", curve)
        _write_csv(out / "curve.csv", ["lambda", "coverage", "mse", "scaled_mse", "objective"],
                   (["" if v is None else repr(float(v)) for v in row]
                    for row in zip(curve.grid, curve.coverage_at, curve.mse_at,
                                   curve.scaled_mse_at, curve.objective_at)))
    return 0


def cmd_atlas(args) -> int:
    atlas_mod.check_relax(args.relax)
    arc = load_archive(args.archive)
    cfg = _composer_config(args)
    out = _out_dir(args)
    results = evaluator_mod.loo_run(arc, _features_for(args, arc), cfg)
    conflicts = atlas_mod.mine_conflicts(cfg=cfg, relax_factor=args.relax, results=results)
    routes = Counter(r.status for r in results)
    print(f"links: {routes['link']}  conflicts: {routes['conflict']}  gaps: {routes['gap']}")
    print(f"conflicts at relax={args.relax:g}: {len(conflicts)}")
    if out is not None:
        graph = atlas_mod.export_graph(results)
        _write_json(out / "atlas.json", graph)
        (out / "atlas.dot").write_text(graph.to_dot(), encoding="utf-8")
        _write_jsonl(out / "compositions.jsonl",
                     (r.composition.to_record() for r in results))
        _write_jsonl(out / "results.jsonl", (r.to_record() for r in results))
        _write_jsonl(out / "conflicts.jsonl",
                     (atlas_mod.conflict_to_record(r) for r in conflicts))
    return 0


def _chat(args, out: Path | None):
    """The chat provider of ``bridge`` and ``reconcile``, recording each prompt
    and reply under OUT/audit when there is an --out directory."""
    chat = parse_chat_provider(args.chat, args.stub_transcript)
    return chat if out is None else generators_mod.AuditingChat(chat, out / "audit")


def cmd_bridge(args) -> int:
    generators_mod.check_max_rounds(args.max_rounds)
    arc = load_archive(args.archive)
    cfg = _composer_config(args)
    target = arc.get(args.target)
    provider = _embedding_provider(args)
    features = _features_for(args, arc, provider)
    out = _out_dir(args)
    chat = _chat(args, out)
    result = generators_mod.bridge_loop(target, arc, features, provider, chat, cfg,
                                        max_rounds=args.max_rounds)
    print(f"target {result.target_id}: rounds={result.rounds_run} "
          f"composable={result.final_composable}")
    print("isolated ratio trace: "
          + ", ".join(f"{x:.4f}" for x in result.isolated_ratio_trace))
    if out is not None:
        _write_json(out / "bridge.json", result)
    return 0


def cmd_reconcile(args) -> int:
    atlas_mod.check_relax(args.relax)
    arc = load_archive(args.archive)
    cfg = _composer_config(args)
    target = arc.get(args.target)
    out = _out_dir(args)
    results = evaluator_mod.loo_run(arc, _features_for(args, arc), cfg, [target.id])
    conflicts = atlas_mod.mine_conflicts(results, cfg, args.relax)
    if not conflicts:
        raise CliError(f"target {args.target!r} is not a conflict at relax={args.relax:g}")
    (conflict,) = conflicts
    sources = [arc.get(i) for i in conflict.composition.weights]
    chat = _chat(args, out)
    request = generators_mod.build_reconciliation_prompt(conflict, sources, target)
    response = chat.complete(request)
    needed, _ = generators_mod.parse_reconciliation_response(response)
    print(f"reconciliation needed: {needed}")
    if out is not None:
        _write_json(out / "reconciliation.json", {
            "target_id": conflict.target_id,
            "relax_factor": args.relax,
            "needed": needed,
            "response": response,
        })
    return 0


def cmd_theory_check(args) -> int:
    out = _out_file(args.out) if args.out else None
    rows = theory_lab.bound_sweep(base_seed=args.seed)
    violations = [r for r in rows if not r.report.holds]
    residual_bad = [r for r in rows if not r.residual_ok]
    print(f"checked {len(rows)} triples: "
          f"{len(violations)} bound violations, "
          f"{len(residual_bad)} residual-floor violations")
    if out is not None:
        _write_csv(out, theory_lab.CSV_HEADER, (row.to_csv_row() for row in rows))
        print(f"sweep written to {out}")
    return 0 if not violations and not residual_bad else 1


def build_parser() -> argparse.ArgumentParser:
    """Every command's parser: the one place each setting's name, type and default are written."""
    parser = argparse.ArgumentParser(
        prog="exatlas",
        description="Compose archived experiment effects into an atlas of "
                    "links, conflicts, and gaps.",
    )
    parser.add_argument("--config", help="JSON config file (flags take precedence)")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--archive", required=True, help="archive .jsonl path")
        p.add_argument("--vectors", help="precomputed feature-vector file")
        p.add_argument("--provider", default="stub",
                       help="embedding provider spec (default %(default)s)")
        p.add_argument("--seed", type=int, default=0,
                       help="seed for stub providers and sweeps (default %(default)s)")
        p.add_argument("--cache-dir", dest="cache_dir", help="embedding cache directory")
        p.add_argument("--lambda", dest="lambda_", type=float, default=ComposerConfig.lambda_,
                       help="composability threshold (default %(default)g)")
        p.add_argument("--ridge", type=float, default=ComposerConfig.ridge,
                       help="ridge penalty (default %(default)g)")
        p.add_argument("--radius-factor", dest="radius_factor", type=float,
                       default=ComposerConfig.radius_factor,
                       help="candidate radius in median distances (default %(default)g)")
        p.add_argument("--max-candidates", dest="max_candidates", type=int,
                       default=ComposerConfig.max_candidates,
                       help="candidate cap (default %(default)s)")

    def chat(p, transcript_help=None):
        p.add_argument("--chat", default="stub", help="chat provider spec (default %(default)s)")
        p.add_argument("--stub-transcript", dest="stub_transcript", help=transcript_help)

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
    p.add_argument("--grid", default=evaluator_mod.DEFAULT_GRID,
                   help="LO:HI:STEP (default %(default)s)")
    p.add_argument("--out", help="output directory")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("atlas", help="route targets and export the atlas graph")
    common(p)
    p.add_argument("--relax", type=float, default=atlas_mod.DEFAULT_RELAX,
                   help="conflict-mining factor (default %(default)g)")
    p.add_argument("--out", help="output directory")
    p.set_defaults(func=cmd_atlas)

    p = sub.add_parser("bridge", help="run the iterative bridge loop for a gap target")
    common(p)
    p.add_argument("--target", required=True, help="gap target experiment id")
    chat(p, "scripted chat transcript file")
    p.add_argument("--max-rounds", dest="max_rounds", type=int,
                   default=generators_mod.DEFAULT_MAX_ROUNDS,
                   help="bridge rounds (default %(default)s)")
    p.add_argument("--out", help="output directory")
    p.set_defaults(func=cmd_bridge)

    p = sub.add_parser("reconcile", help="build and send a reconciliation prompt")
    common(p)
    p.add_argument("--target", required=True, help="conflict target experiment id")
    p.add_argument("--relax", type=float, default=atlas_mod.STRICT_RELAX,
                   help="admit conflicts up to relax*lambda "
                        "(default %(default)g, strict conflicts)")
    chat(p)
    p.add_argument("--out", help="output directory")
    p.set_defaults(func=cmd_reconcile)

    p = sub.add_parser("theory-check", help="run the synthetic error-bound sweep")
    p.add_argument("--seed", type=int, default=0, help="base seed (default %(default)s)")
    p.add_argument("--out", help="output CSV path")
    p.set_defaults(func=cmd_theory_check)

    return parser


def _commands(parser: argparse.ArgumentParser) -> list[argparse.ArgumentParser]:
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return list(sub.choices.values())


# Each setting a --config file may hold, read off the parser: dest -> its flag's type.
_SETTINGS = {action.dest: action.type or str for command in _commands(build_parser())
             for action in command._actions if action.dest not in _NOT_SETTINGS}
CONFIG_KEYS = frozenset(_SETTINGS)


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config_file(args.config)
        if config:
            # The file's values become the commands' defaults, so a flag still
            # wins; a command ignores the settings it has no option for.
            for command in _commands(parser):
                command.set_defaults(**config)
            args = parser.parse_args(argv)
        return args.func(args)
    except MemoryError as e:
        print(f"error: out of memory: {e}", file=sys.stderr)
        return 2
    except (ArchiveError, EmbeddingError, ComposerError, evaluator_mod.EvaluatorError,
            generators_mod.ChatError, CliError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
