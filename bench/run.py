"""exatlas benchmark: planted archives driven through ``exatlas.cli.main``.

    python3 bench/run.py --workload atlas-360 --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout. Inputs are generated from --seed
under .bench_work/, the workload's commands run in a fresh interpreter, the
outputs are checked, and the last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics are
the end-to-end ones; with --trace 1 a traced pass gives the per-layer ones.
A readable summary goes to stderr.

Workloads (see BENCHMARK.json for why each was chosen), both on a planted
archive of N=360 experiments with d=768 embeddings (features of length 2304):
  atlas-360   ingest --out, embed --out (stub:d=768), then evaluate, calibrate and
              atlas on the normalized archive with the planted --vectors
  bridge-360  bridge --max-rounds 3 on the highest-rho gap, with a scripted
              transcript and planted proposal vectors (file: provider)
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

# One BLAS thread (nproc is 2 on the reference box): set before numpy is first
# imported, here or in a worker, which inherits the environment.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"

N_ATLAS = 360
DIM = 768
# setup_s is the median over SETUP_GROUPS groups of the mean of SETUP_GROUP_SIZE
# back-to-back set-ups. On the 2-vCPU virtual machine of bench/baseline.json the
# CPU speed switches between a fast and a slow mode (up to 1.7x apart) every few
# seconds; a median of single set-ups jumps between the modes, a mean over a
# group averages them as a pass's wall time does.
SETUP_GROUPS = 6
SETUP_GROUP_SIZE = 3
MIN_PASSES = 2  # so that outputs can be compared between passes
WORKER_TIMEOUT_S = 170
WORKLOADS = ("atlas-360", "bridge-360")
COMMANDS = ("ingest", "embed", "evaluate", "calibrate", "atlas", "bridge")


@dataclass
class Context:
    """A workload's generated inputs, the commands to run on them, and what
    the checks need to know about them."""

    workload: str
    seed: int
    cfg: object
    archive: object
    steps: list[list[str]]
    setup_files: dict
    check: object
    features: dict = field(default_factory=dict)
    bridge: object = None
    dim: int = DIM
    inputs: list[Path] = field(default_factory=list)
    count_embed: dict | None = None


def prepare(workload: str, seed: int, work: Path) -> Context:
    import checks
    import planted
    from exatlas.composer import ComposerConfig

    cfg = ComposerConfig()
    world = planted.planted_archive(seed, N_ATLAS, DIM)
    arc_path, vec_path = work / "archive.jsonl", work / "vectors.jsonl"
    planted.write_archive(arc_path, world.archive)
    planted.write_vectors(vec_path, world.features)
    setup_files = {"archive": str(arc_path), "vectors": [str(vec_path)]}
    if workload == "atlas-360":
        # The stub stands in for the embedding stage's cost; its vectors cannot
        # stand in for a model's (they compose nothing), so the planted ones are used.
        normalized = "{out}/ingest/archive.jsonl"
        steps = [["ingest", "--archive", str(arc_path), "--out", normalized],
                 ["embed", "--archive", normalized, "--provider", f"stub:d={DIM}",
                  "--seed", str(seed), "--out", "{out}/embed/vectors.jsonl"]]
        steps += [[cmd, "--archive", normalized, "--vectors", str(vec_path),
                   "--out", f"{{out}}/{cmd}"] for cmd in ("evaluate", "calibrate", "atlas")]
        return Context(workload, seed, cfg, world.archive, steps, setup_files,
                       checks.check_atlas, features=world.features,
                       inputs=[arc_path, vec_path],
                       count_embed={"archive_path": str(arc_path), "dim": DIM, "seed": seed})

    fx = planted.plant_bridge(seed, world, cfg)
    prop_path, tr_path = work / "proposals.jsonl", work / "transcript.jsonl"
    planted.write_vectors(prop_path, fx.proposal_vectors)
    planted.write_transcript(tr_path, fx.transcript)
    steps = [["bridge", "--archive", str(arc_path), "--vectors", str(vec_path),
              "--target", fx.target_id, "--provider", f"file:{prop_path}",
              "--chat", "stub", "--stub-transcript", str(tr_path), "--max-rounds", "3",
              "--out", "{out}/bridge"]]
    return Context(workload, seed, cfg, world.archive, steps, setup_files,
                   checks.check_bridge, features=world.features, bridge=fx,
                   inputs=[arc_path, vec_path, prop_path, tr_path])


def run_worker(spec: dict, work: Path, name: str) -> dict:
    spec = {**spec, "src": str(SRC), "result": str(work / f"{name}.result.json")}
    spec_path = work / f"{name}.spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    # Bytecode caching on, as for an installed package: otherwise every worker
    # would recompile exatlas and setup_s would depend on the caller's environment.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    proc = subprocess.run([sys.executable, str(BENCH_DIR / "worker.py"), str(spec_path)],
                          cwd=ROOT, env=env, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{name} worker exited with {proc.returncode}")
    return json.loads(Path(spec["result"]).read_text(encoding="utf-8"))


def check_passes(ctx: Context, passes: list[dict], work: Path) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems): every command of every pass counts once."""
    subdirs = [argv[-1].split("/")[1] for argv in ctx.steps]
    problems: list[str] = []
    failed: set[tuple[int, int]] = set()
    for k, p in enumerate(passes):
        for i, rec in enumerate(p["records"]):
            if rec["rc"] != 0:
                failed.add((k, i))
                problems.append(f"pass {k} {rec['command']}: exit {rec['rc']}: "
                                f"{rec['stderr'].strip()[-500:]}")
            outputs = {f: h for f, h in p["digests"].items() if f.startswith(subdirs[i] + "/")}
            first = {f: h for f, h in passes[0]["digests"].items()
                     if f.startswith(subdirs[i] + "/")}
            if outputs != first:
                failed.add((k, i))
                problems.append(f"pass {k} {rec['command']}: outputs differ from pass 0")
    if all(rec["rc"] == 0 for rec in passes[0]["records"]):
        try:
            found = ctx.check(ctx, work / "pass0", passes[0]["records"])
        except (OSError, KeyError, ValueError, TypeError) as e:  # missing or malformed output
            found = [(i, f"unreadable output: {e!r}") for i in range(len(ctx.steps))]
        for i, problem in found:
            failed.add((0, i))
            problems.append(f"pass 0 {ctx.steps[i][0]}: {problem}")
    attempted = sum(len(p["records"]) for p in passes)
    return attempted, len(failed), problems


def quality(ctx: Context, work: Path) -> dict[str, float]:
    """Answers that must not move when only speed changes (deterministic per seed)."""
    out = {"evaluator.coverage": 0.0, "evaluator.sign_match_rate": 0.0, "evaluator.mse": 0.0,
           "atlas.links": 0, "atlas.conflicts": 0, "atlas.gaps": 0, "generators.rounds": 0}
    pass0 = work / "pass0"
    if ctx.workload == "atlas-360":
        report = json.loads((pass0 / "evaluate" / "report.json").read_text(encoding="utf-8"))
        out.update({f"evaluator.{k}": report[k] or 0.0
                    for k in ("coverage", "sign_match_rate", "mse")})
        doc = json.loads((pass0 / "atlas" / "atlas.json").read_text(encoding="utf-8"))
        statuses = [node["status"] for node in doc["nodes"]]
        out.update({f"atlas.{s}s": statuses.count(s) for s in ("link", "conflict", "gap")})
    elif ctx.workload == "bridge-360":
        doc = json.loads((pass0 / "bridge" / "bridge.json").read_text(encoding="utf-8"))
        out["generators.rounds"] = doc["rounds_run"]
    return out


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


_UNITS = {"_s": "s", "_mb": "MB", "_computed": "MB", "_frac": "fraction", "_p50": "ms",
          "_p99": "ms", ".mse": "sq_effect", ".coverage": "fraction",
          ".sign_match_rate": "fraction"}


def per_layer(ctx: Context, passes: list[dict], work: Path, failed_frac: float) -> dict:
    """Per-layer metrics: the traced pass (1) for layer times and counts, the
    untraced pass (0) for each command's time."""
    untraced, traced = passes
    values = {f"cli.{c}_s": next((r["seconds"] for r in untraced["records"]
                                  if r["command"] == c), 0.0) for c in COMMANDS}
    values.update(traced["layers"])
    count = traced.get("embed_count")
    values["representation.embed_requests"] = count["requests"] if count else 0
    values["representation.texts_per_request"] = (
        count["texts_requested"] / count["requests"] if count else 0.0)
    if count:
        values["representation.unique_text_frac"] = count["unique_texts"] / count["texts"]
    values.update(quality(ctx, work))
    values["failed_ops_frac"] = failed_frac
    return {name: metric(v, next((u for suffix, u in _UNITS.items() if name.endswith(suffix)),
                                 "count"))
            for name, v in values.items()}


def end_to_end(passes: list[dict], setups: list[float]) -> dict:
    walls = [p["wall"] for p in passes]
    return {
        "setup_s": metric(statistics.median(setups), "s"),
        "wall_s": metric(statistics.median(walls), "s"),
        "peak_rss_mb": metric(max(p["peak_rss_mb"] for p in passes), "MB"),
    }


def summary(ctx: Context, passes: list[dict], setups: list[float], problems: list[str]) -> str:
    from planted import file_digest

    per_command: dict[str, list[float]] = {}
    for p in passes:
        for rec in p["records"]:
            per_command.setdefault(rec["command"], []).append(rec["seconds"])
    lines = [f"{ctx.workload} seed {ctx.seed}: {len(passes)} passes, wall "
             + ", ".join(f"{p['wall']:.3f}" for p in passes) + " s, cpu "
             + ", ".join(f"{p['cpu']:.3f}" for p in passes) + " s"]
    lines += [f"  input {path.name}: {path.stat().st_size} bytes, sha256 {file_digest(path)}"
              for path in ctx.inputs]
    lines += [f"  {c}: median {statistics.median(v):.3f} s, max {max(v):.3f} s, n={len(v)}"
              for c, v in per_command.items()]
    if setups:
        lines.append(f"  setup (group means of {SETUP_GROUP_SIZE}): median "
                     f"{statistics.median(setups):.3f} s, max {max(setups):.3f} s, "
                     f"n={len(setups)}: " + ", ".join(f"{t:.3f}" for t in setups))
    lines += [f"  check failed: {problem}" for problem in problems]
    return "\n".join(lines)


def measure(ctx: Context, work: Path, seconds: int, trace: bool) -> tuple[list[dict], list[float]]:
    """(passes, setup times, one per group). Untraced: passes until their wall
    time adds up to ``seconds`` (and at least MIN_PASSES), with the setup groups
    spread over the run so that both sample the same stretch of time: a third
    before the first pass, a third before the second, the rest after the last.
    Traced: one untraced pass, then one traced pass, and no set-ups."""
    passes: list[dict] = []
    setups: list[float] = []

    def setup_group() -> None:
        spec = {"mode": "setup", **ctx.setup_files}
        times = [run_worker(spec, work, f"setup{len(setups)}-{i}")["setup_s"]
                 for i in range(SETUP_GROUP_SIZE)]
        setups.append(statistics.fmean(times))

    while True:
        k = len(passes)
        traced = trace and k == 1
        if not trace and k < 2:
            for _ in range(SETUP_GROUPS // 3):
                setup_group()
        spec = {"mode": "pass", "pass": k, "steps": ctx.steps, "out": str(work / f"pass{k}"),
                "keep": k == 0, "trace": traced,
                "spans": str(ROOT / ".bench_work" / f"spans-{ctx.workload}-s{ctx.seed}.jsonl"),
                "count_embed": ctx.count_embed if traced else None}
        passes.append(run_worker(spec, work, f"pass{k}"))
        if traced or (not trace and len(passes) >= MIN_PASSES
                      and sum(p["wall"] for p in passes) >= seconds):
            break
    while not trace and len(setups) < SETUP_GROUPS:
        setup_group()
    return passes, setups


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "exatlas" / "__init__.py").is_file():
        print(f"error: no exatlas sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work = ROOT / ".bench_work" / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        ctx = prepare(args.workload, args.seed, work)
        passes, setups = measure(ctx, work, args.seconds, bool(args.trace))
        attempted, failed, problems = check_passes(ctx, passes, work)
        print(summary(ctx, passes, setups, problems), file=sys.stderr)
        metrics = (per_layer(ctx, passes, work, failed / attempted) if args.trace
                   else end_to_end(passes, setups))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
