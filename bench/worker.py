"""One fresh interpreter that runs a workload's command sequence through
``exatlas.cli.main`` in-process, as a user's commands would run.

    python3 bench/worker.py SPEC.json

The spec names the mode. ``setup`` times importing ``exatlas.cli`` and loading
the workload's inputs. ``pass`` runs the sequence once, traced or not, and
reports its wall time, each command's time and exit code, digests of the
outputs and this process's peak RSS. Each pass gets a fresh interpreter, as
each of a user's commands would. The result is written to the spec's
``result`` path.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

_T0 = time.perf_counter()  # before exatlas (and numpy) is imported


def _setup(spec: dict) -> dict:
    from exatlas import cli

    cli.load_archive(spec["archive"])
    for path in spec["vectors"]:
        cli.read_vector_file(path)
    return {"setup_s": time.perf_counter() - _T0}


def _run_step(cli, argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as e:  # argparse rejected the arguments
        rc = e.code if isinstance(e.code, int) else 2
    except Exception:  # a crash is a failed command; keep running the rest
        rc = "exception"
        err.write(traceback.format_exc())
    return {"command": argv[0], "rc": rc, "seconds": time.perf_counter() - t0,
            "stdout": out.getvalue(), "stderr": err.getvalue()}


def _digests(root: Path) -> dict[str, str]:
    out = {}
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h = hashlib.sha256()
        with path.open("rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
        out[path.relative_to(root).as_posix()] = h.hexdigest()
    return out


def _percentile(values: list[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q)) if values else 0.0


def layer_metrics(tracer) -> dict[str, float]:
    total, self_time, durations = tracer.layer_times()
    counts = tracer.counts
    assess_ms = [d * 1e3 for d in durations["composer.assess"]]
    solve_calls = len(durations["composer.solve_weights"])
    chat_calls, chat_s = tracer.outer_chat()
    embed_calls = len(durations["representation.embed_text"])
    return {
        "cli.self_s": sum(v for k, v in self_time.items() if k.startswith("cli.")),
        "archive.load_s": total["archive.load_archive"],
        "archive.save_s": total["archive.save_archive"],
        "representation.read_vectors_s": total["representation.read_vector_file"],
        "representation.read_vectors_mb": counts["read_mb"],
        "representation.write_vectors_s": total["representation.write_vector_file"],
        "representation.write_vectors_mb": counts["write_mb"],
        "representation.feature_matrix_s": total["representation.feature_matrix"],
        "representation.embed_text_calls": embed_calls,
        "representation.unique_text_frac":
            len(tracer.texts) / embed_calls if embed_calls else 0.0,
        "composer.assess_calls": len(assess_ms),
        "composer.assess_self_s": self_time["composer.assess"],
        "composer.assess_ms_p50": _percentile(assess_ms, 50),
        "composer.assess_ms_p99": _percentile(assess_ms, 99),
        "composer.select_s": total["composer.select_candidates"],
        "composer.select_rows": counts["select_rows"],
        "composer.select_mb_computed": counts["select_values"] * 8 / 1e6,
        "composer.solve_s": total["composer.solve_weights"],
        "composer.solve_calls": solve_calls,
        "composer.solve_fallbacks": counts["solve_fallbacks"],
        "composer.candidates_mean":
            counts["solve_candidates"] / solve_calls if solve_calls else 0.0,
        "composer.residual_s": total["composer.residuals"],
        "evaluator.loo_self_s": self_time["evaluator.loo_run"],
        "evaluator.report_s": total["evaluator.build_report"],
        "evaluator.calibrate_self_s": self_time["evaluator.calibrate_lambda"],
        "atlas.route_s": total["atlas.route_results"],
        "atlas.mine_conflicts_s": total["atlas.mine_conflicts"],
        "atlas.export_s": total["atlas.export_graph"],
        "atlas.isolated_ratio_s": total["atlas.isolated_ratio"],
        "atlas.isolated_ratio_calls": len(durations["atlas.isolated_ratio"]),
        "generators.bridge_self_s": self_time["generators.bridge_loop"],
        "generators.chat_calls": chat_calls,
        "generators.chat_s": chat_s,
        "generators.proposals": counts["proposals"],
        "generators.hypothetical_weighted": counts["hypothetical_weighted"],
        "trace.spans": len(tracer.spans),
        "trace.overhead_s": len(tracer.spans) * tracer.span_cost(),
    }


def count_embed_requests(archive_path: str, dim: int, seed: int) -> dict[str, int]:
    """Embed the archive through ``feature_matrix`` with a remote provider whose
    transport is an in-process counter: no sockets, no sleeping on retries."""
    from exatlas.archive import load_archive
    from exatlas.representation import (DeterministicStubProvider, RemoteEmbeddingProvider,
                                        embedding_texts, feature_matrix)

    stub = DeterministicStubProvider(dim, seed)
    sizes: list[int] = []

    def transport(endpoint: str, payload: dict, headers: dict) -> dict:
        sizes.append(len(payload["input"]))
        return {"data": [{"embedding": stub.embed(t).tolist()} for t in payload["input"]]}

    provider = RemoteEmbeddingProvider(endpoint="in-process", dimension=dim,
                                       transport=transport, sleep=lambda s: None)
    archive = load_archive(archive_path)
    feature_matrix(archive, provider)
    texts = [text for exp in archive for text in embedding_texts(exp)[:2]]
    return {"requests": len(sizes), "texts_requested": sum(sizes),
            "texts": len(texts), "unique_texts": len(set(texts))}


def _pass(spec: dict) -> dict:
    from exatlas import cli

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer(pass_id=spec["pass"])
        tracer.install()
    out_dir = Path(spec["out"])
    t0, cpu0 = time.perf_counter(), time.process_time()
    records = [_run_step(cli, [a.replace("{out}", str(out_dir)) for a in argv])
               for argv in spec["steps"]]
    result = {"wall": time.perf_counter() - t0, "cpu": time.process_time() - cpu0,
              "records": records}
    if tracer is not None:
        tracer.uninstall()
        tracer.write(Path(spec["spans"]))
        result["layers"] = layer_metrics(tracer)
    result["digests"] = _digests(out_dir)
    if not spec["keep"]:
        shutil.rmtree(out_dir)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if spec.get("count_embed"):
        result["embed_count"] = count_embed_requests(**spec["count_embed"])
    return result


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    sys.path.insert(0, spec["src"])
    result = _setup(spec) if spec["mode"] == "setup" else _pass(spec)
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
