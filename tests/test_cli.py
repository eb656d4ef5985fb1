from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import exatlas
from exatlas import cli as cli_mod
from exatlas import evaluator as evaluator_mod
from exatlas.archive import load_archive
from exatlas.cli import MAX_GRID_POINTS, CliError, _parse_grid, main, toy_archive_path
from exatlas.composer import ComposerConfig, assess
from exatlas.generators import build_bridge_prompt, prompt_hash
from exatlas.representation import build_feature, read_vector_file, write_vector_file

TOY = str(toy_archive_path())


def run(*argv) -> int:
    return main(list(argv))


class TestIngest:
    def test_valid_archive_exits_zero(self, tmp_path, capsys):
        out = tmp_path / "normalized.jsonl"
        assert run("ingest", "--archive", TOY, "--out", str(out)) == 0
        assert "ingested 12 records" in capsys.readouterr().out
        assert len(load_archive(out)) == 12

    def test_duplicate_id_exits_nonzero_naming_id(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        rec = {"id": "dup-1", "treatment": "t", "outcome": "o", "context": "",
               "effect_size": 0.1}
        bad.write_text(json.dumps(rec) + "\n" + json.dumps(rec) + "\n",
                       encoding="utf-8")
        assert run("ingest", "--archive", str(bad)) == 2
        assert "dup-1" in capsys.readouterr().err

    def test_empty_file_warns_but_succeeds(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        assert run("ingest", "--archive", str(empty)) == 0
        assert "empty" in capsys.readouterr().err


class TestEmbed:
    def test_stub_embedding_writes_feature_file(self, tmp_path, capsys):
        out = tmp_path / "vectors.jsonl"
        assert run("embed", "--archive", TOY, "--provider", "stub:d=8,seed=1",
                   "--out", str(out)) == 0
        vectors = read_vector_file(out)
        assert len(vectors) == 12
        assert all(v.shape == (24,) for v in vectors.values())
        assert "raw-fallback: toy-007" in capsys.readouterr().out

    def test_rerun_is_byte_stable(self, tmp_path):
        outs = []
        for i in (1, 2):
            out = tmp_path / f"v{i}.jsonl"
            run("embed", "--archive", TOY, "--provider", "stub:d=8,seed=1",
                "--out", str(out))
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_vectors_reusable_by_evaluate(self, tmp_path, capsys):
        vec = tmp_path / "v.jsonl"
        run("embed", "--archive", TOY, "--provider", "stub:d=8,seed=1",
            "--out", str(vec))
        capsys.readouterr()
        assert run("evaluate", "--archive", TOY, "--vectors", str(vec)) == 0
        assert "Sign match" in capsys.readouterr().out


class TestEvaluate:
    def test_writes_report_and_results(self, tmp_path):
        out = tmp_path / "eval"
        assert run("evaluate", "--archive", TOY, "--provider", "stub:d=8,seed=1",
                   "--out", str(out)) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["n_total"] == 12
        assert report["lambda_used"] == pytest.approx(0.462)
        lines = (out / "results.jsonl").read_text().splitlines()
        assert len(lines) == 12

    def test_lambda_override_respected(self, tmp_path):
        out = tmp_path / "eval"
        run("evaluate", "--archive", TOY, "--provider", "stub:d=8,seed=1",
            "--lambda", "0.9", "--out", str(out))
        report = json.loads((out / "report.json").read_text())
        assert report["lambda_used"] == pytest.approx(0.9)
        assert report["n_composable"] >= 4


class TestConfig:
    @staticmethod
    def composer_config(argv, config):
        from exatlas.cli import _composer_config, build_parser

        return _composer_config(build_parser().parse_args(argv), config)

    def test_defaults_are_composer_config_defaults(self):
        assert self.composer_config(["evaluate", "--archive", TOY], {}) == ComposerConfig()

    def test_flag_over_config_over_default(self):
        got = self.composer_config(["evaluate", "--archive", TOY, "--lambda", "0.9"],
                                   {"lambda_": 0.7, "ridge": 0.5})
        assert got == ComposerConfig(lambda_=0.9, ridge=0.5)

    def test_config_keys_are_the_settings_read(self):
        import ast
        import inspect

        from exatlas import cli

        read = {node.args[2].value for node in ast.walk(ast.parse(inspect.getsource(cli)))
                if isinstance(node, ast.Call) and getattr(node.func, "id", "") == "_setting"}
        assert read == cli.CONFIG_KEYS

    def test_config_file_is_applied(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"lambda_": 0.9}), encoding="utf-8")
        out = tmp_path / "eval"
        assert run("--config", str(config), "evaluate", "--archive", TOY,
                   "--provider", "stub:d=8,seed=1", "--out", str(out)) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["lambda_used"] == pytest.approx(0.9)


class TestErrorsExitCleanly:
    """Bad input ends in exit code 2 and a single ``error:`` line, never a traceback."""

    @staticmethod
    def one_error_line(err: str) -> str:
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err
        return lines[0]

    @pytest.mark.parametrize("argv, message", [
        (["evaluate", "--lambda", "nan"], "lambda_ must be a finite number, got nan"),
        (["evaluate", "--lambda=-inf"], "lambda_ must be a finite number, got -inf"),
        (["evaluate", "--ridge", "nan"], "ridge must be a finite number, got nan"),
        (["calibrate", "--ridge", "inf"], "ridge must be a finite number, got inf"),
        (["evaluate", "--radius-factor", "nan"],
         "radius_factor must be a finite number, got nan"),
        (["atlas", "--relax", "nan"], "relax_factor must be a finite number, got nan"),
        (["atlas", "--relax", "inf"], "relax_factor must be a finite number, got inf"),
        (["reconcile", "--target", "toy-001", "--relax", "nan"],
         "relax_factor must be a finite number, got nan"),
    ])
    def test_non_finite_settings(self, capsys, argv, message):
        assert run(*argv, "--archive", TOY, "--provider", "stub:d=8") == 2
        captured = capsys.readouterr()
        assert self.one_error_line(captured.err) == f"error: {message}"
        assert captured.out == ""

    def test_non_finite_vector_file(self, tmp_path, capsys):
        vec = tmp_path / "v.jsonl"
        run("embed", "--archive", TOY, "--provider", "stub:d=8,seed=1", "--out", str(vec))
        lines = vec.read_text(encoding="utf-8").splitlines()
        rec = json.loads(lines[3])
        rec["values"][5] = float("nan")
        lines[3] = json.dumps(rec)
        vec.write_text("\n".join(lines) + "\n", encoding="utf-8")
        capsys.readouterr()
        for cmd in ("evaluate", "atlas"):
            assert run(cmd, "--archive", TOY, "--vectors", str(vec)) == 2
            line = self.one_error_line(capsys.readouterr().err)
            assert line == f"error: {vec}:4: non-finite value"

    @pytest.mark.parametrize("line, message", [
        ('{"id": "x"}', "missing field 'values'"),
        ('[0.5, 0.5]', "expected a JSON object"),
    ])
    def test_malformed_vector_record(self, tmp_path, capsys, line, message):
        vec = tmp_path / "v.jsonl"
        run("embed", "--archive", TOY, "--provider", "stub:d=8,seed=1", "--out", str(vec))
        lines = vec.read_text(encoding="utf-8").splitlines()
        lines[2] = line
        vec.write_text("\n".join(lines) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert run("evaluate", "--archive", TOY, "--vectors", str(vec)) == 2
        assert self.one_error_line(capsys.readouterr().err) == f"error: {vec}:3: {message}"

    def test_vector_dimension_mismatch_names_line(self, tmp_path, capsys):
        vec = tmp_path / "v.jsonl"
        run("embed", "--archive", TOY, "--provider", "stub:d=8,seed=1", "--out", str(vec))
        lines = vec.read_text(encoding="utf-8").splitlines()
        rec = json.loads(lines[4])
        rec["values"].pop()
        lines[4] = json.dumps(rec)
        vec.write_text("\n".join(lines) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert run("evaluate", "--archive", TOY, "--vectors", str(vec)) == 2
        assert self.one_error_line(capsys.readouterr().err) == \
            f"error: {vec}:5: dimension mismatch: expected 24, got 23"

    @pytest.mark.parametrize("record, message", [
        ({"prompt_hash": "abc"}, "missing field 'response'"),
        (["abc", "reply"], "expected a JSON object"),
    ])
    def test_malformed_transcript(self, tmp_path, capsys, record, message):
        archive_path, provider_path, feature_path, transcript = make_bridge_inputs(tmp_path)
        transcript.write_text(json.dumps(record) + "\n", encoding="utf-8")
        assert run("bridge", "--archive", str(archive_path), "--vectors", str(feature_path),
                   "--provider", f"file:{provider_path}", "--target", "gap-t",
                   "--chat", "stub", "--stub-transcript", str(transcript)) == 2
        assert self.one_error_line(capsys.readouterr().err) == \
            f"error: {transcript}:1: {message}"

    def test_unknown_config_key(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"lamda": 0.1, "ridge": 0.5, "jbos": 2}),
                          encoding="utf-8")
        assert run("--config", str(config), "evaluate", "--archive", TOY,
                   "--provider", "stub:d=8") == 2
        assert self.one_error_line(capsys.readouterr().err) == \
            f"error: unknown key in config file {config}: 'jbos', 'lamda'"

    def test_config_not_json(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text("lambda_ = 0.5\n", encoding="utf-8")
        assert run("--config", str(config), "evaluate", "--archive", TOY) == 2
        assert self.one_error_line(capsys.readouterr().err).startswith(
            f"error: config file {config}: invalid JSON: ")

    def test_missing_input_file(self, tmp_path, capsys):
        missing = tmp_path / "missing.jsonl"
        for argv in (["evaluate", "--archive", str(missing)],
                     ["evaluate", "--archive", TOY, "--vectors", str(missing)],
                     ["--config", str(missing), "evaluate", "--archive", TOY]):
            assert run(*argv) == 2
            line = self.one_error_line(capsys.readouterr().err)
            assert str(missing) in line

    def test_deeply_nested_inputs(self, tmp_path, capsys):
        deep = "[" * 5000 + "]" * 5000
        archive = tmp_path / "deep.jsonl"
        archive.write_text(f'{{"id": "a", "treatment": {deep}}}\n', encoding="utf-8")
        config = tmp_path / "deep.json"
        config.write_text(f'{{"grid": {deep}}}', encoding="utf-8")
        assert run("ingest", "--archive", str(archive)) == 2
        assert self.one_error_line(capsys.readouterr().err) == \
            f"error: {archive}:1: invalid JSON: nested too deeply"
        assert run("--config", str(config), "evaluate", "--archive", TOY) == 2
        assert self.one_error_line(capsys.readouterr().err) == \
            f"error: config file {config}: invalid JSON: nested too deeply"

    def test_single_record_archive(self, tmp_path, capsys):
        one = tmp_path / "one.jsonl"
        with open(TOY, encoding="utf-8") as fh:
            one.write_text(fh.readline(), encoding="utf-8")
        assert run("evaluate", "--archive", str(one), "--provider", "stub:d=8") == 2
        line = self.one_error_line(capsys.readouterr().err)
        assert "at least 2 experiments" in line

    def test_composer_error(self, monkeypatch, capsys):
        from exatlas import evaluator as evaluator_mod
        from exatlas.composer import EmptyPoolError

        def fail(*args, **kwargs):
            raise EmptyPoolError("candidate pool is empty")

        monkeypatch.setattr(evaluator_mod, "loo_run", fail)
        assert run("evaluate", "--archive", TOY, "--provider", "stub:d=8") == 2
        assert self.one_error_line(capsys.readouterr().err) == \
            "error: candidate pool is empty"


class TestCalibrate:
    def test_curve_csv_and_chosen_lambda(self, tmp_path, capsys):
        out = tmp_path / "cal"
        assert run("calibrate", "--archive", TOY, "--provider", "stub:d=8,seed=1",
                   "--grid", "0.1:1.0:0.1", "--out", str(out)) == 0
        assert "chosen lambda" in capsys.readouterr().out
        rows = (out / "curve.csv").read_text().splitlines()
        assert rows[0] == "lambda,coverage,mse,scaled_mse,objective"
        assert len(rows) == 11
        coverages = [float(r.split(",")[1]) for r in rows[1:]]
        assert all(b >= a for a, b in zip(coverages, coverages[1:]))

    def test_calibration_json_written(self, tmp_path):
        out = tmp_path / "cal"
        run("calibrate", "--archive", TOY, "--provider", "stub:d=8,seed=1",
            "--grid", "0.1:1.0:0.1", "--out", str(out))
        doc = json.loads((out / "calibration.json").read_text())
        assert doc["chosen_lambda"] in doc["grid"]

    @pytest.mark.parametrize("spec, message", [
        ("0:1:0", "--grid STEP must be positive, got '0:1:0'"),
        ("1:0:-0.1", "--grid STEP must be positive, got '1:0:-0.1'"),
        ("0:inf:1", "--grid values must be finite, got '0:inf:1'"),
        ("-inf:1:0.1", "--grid values must be finite, got '-inf:1:0.1'"),
        ("0:1:nan", "--grid values must be finite, got '0:1:nan'"),
        ("0:1", "--grid expects LO:HI:STEP, got '0:1'"),
        ("1:0:0.1", "--grid HI must not be below LO, got '1:0:0.1'"),
        ("0:1e9:1", f"--grid has more than {MAX_GRID_POINTS} points, got '0:1e9:1'"),
        ("-1e308:1e308:1", f"--grid has more than {MAX_GRID_POINTS} points, "
                           "got '-1e308:1e308:1'"),
    ])
    def test_bad_grid_is_rejected(self, spec, message):
        with pytest.raises(CliError) as err:
            _parse_grid(spec)
        assert str(err.value) == message

    def test_grid_cap(self, monkeypatch):
        monkeypatch.setattr(cli_mod, "MAX_GRID_POINTS", 5)
        assert _parse_grid("0:4:1") == [0.0, 1.0, 2.0, 3.0, 4.0]
        with pytest.raises(CliError, match="more than 5 points"):
            _parse_grid("0:5:1")

    def test_grid_over_the_cap_is_never_built(self, monkeypatch):
        def build(*args):
            raise AssertionError("default_grid called")

        monkeypatch.setattr(evaluator_mod, "default_grid", build)
        with pytest.raises(CliError, match="more than"):
            _parse_grid("0:1e9:1e-300")

    @pytest.mark.parametrize("spec", ["0:1:0", "1:0:0.1", "0:1e9:1", "0:1e-9:1e-12", "0:1"])
    def test_bad_grid_fails_before_the_pass(self, monkeypatch, capsys, spec):
        def loo_run(*args, **kwargs):
            raise AssertionError("loo_run called")

        monkeypatch.setattr(evaluator_mod, "loo_run", loo_run)
        assert run("calibrate", "--archive", TOY, "--provider", "stub:d=8", "--grid", spec) == 2
        TestErrorsExitCleanly.one_error_line(capsys.readouterr().err)

    @pytest.mark.parametrize("spec", ["0:1:0", "0:inf:1", "0:1:nan"])
    def test_bad_grid_exits_2(self, tmp_path, capsys, spec):
        assert run("calibrate", "--archive", TOY, "--provider", "stub:d=8",
                   "--grid", spec) == 2
        assert TestErrorsExitCleanly.one_error_line(capsys.readouterr().err).startswith(
            "error: --grid ")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"grid": spec}), encoding="utf-8")
        assert run("--config", str(config), "calibrate", "--archive", TOY,
                   "--provider", "stub:d=8") == 2
        assert TestErrorsExitCleanly.one_error_line(capsys.readouterr().err).startswith(
            "error: --grid ")


class TestAtlas:
    def test_exports_and_counts(self, tmp_path, capsys):
        out = tmp_path / "atlas"
        assert run("atlas", "--archive", TOY, "--provider", "stub:d=8,seed=1",
                   "--out", str(out)) == 0
        printed = capsys.readouterr().out
        assert "links:" in printed and "gaps:" in printed
        doc = json.loads((out / "atlas.json").read_text())
        assert {n["id"] for n in doc["nodes"]} == set(load_archive(TOY).ids())
        assert (out / "atlas.dot").read_text().startswith("digraph atlas {")
        comp_lines = (out / "compositions.jsonl").read_text().splitlines()
        assert len(comp_lines) == 12
        first = json.loads(comp_lines[0])
        assert set(first) == {"target_id", "weights", "r", "rho",
                              "composed_effect", "composable", "solver_status"}

    def test_relax_factor_one_equals_strict(self, tmp_path):
        outs = {}
        for relax in ("1.0", "1.5"):
            out = tmp_path / f"atlas{relax}"
            run("atlas", "--archive", TOY, "--provider", "stub:d=8,seed=1",
                "--relax", relax, "--out", str(out))
            lines = (out / "conflicts.jsonl").read_text().splitlines()
            outs[relax] = [json.loads(l) for l in lines]
        strict_ids = {c["target_id"] for c in outs["1.0"]}
        relaxed_ids = {c["target_id"] for c in outs["1.5"]}
        assert strict_ids <= relaxed_ids
        assert all(c["relaxed"] is False for c in outs["1.0"])


def make_bridge_inputs(tmp_path):
    """Self-contained gap fixture for the CLI: archive, vectors, transcript."""
    o = np.array([1.0, 0.0, 0.0, 0.0])
    t_vecs = {
        "treat A": np.array([1.0, 0.0, 0.0, 0.0]),
        "treat B": np.array([0.9, 0.1, 0.0, 0.0]),
        "treat C": np.array([0.8, 0.2, 0.0, 0.0]),
        "treat D": np.array([0.85, 0.15, 0.0, 0.0]),
        "treat T": np.array([0.0, 0.0, 1.0, 0.0]),
    }
    t_vecs["planted bridge treatment"] = 2 * t_vecs["treat T"] - t_vecs["treat A"]
    text_vectors = dict(t_vecs)
    text_vectors["common outcome"] = o
    provider_path = tmp_path / "text_vectors.jsonl"
    write_vector_file(provider_path, text_vectors)

    exps = []
    for exp_id, treat in [("src-a", "treat A"), ("src-b", "treat B"),
                          ("src-c", "treat C"), ("src-d", "treat D"),
                          ("gap-t", "treat T")]:
        exps.append({"id": exp_id, "treatment": treat, "outcome": "common outcome",
                     "context": "", "effect_size": 0.5})
    archive_path = tmp_path / "archive.jsonl"
    archive_path.write_text(
        "\n".join(json.dumps(e) for e in exps) + "\n", encoding="utf-8")

    features = {e["id"]: build_feature(t_vecs[e["treatment"]], o) for e in exps}
    feature_path = tmp_path / "features.jsonl"
    write_vector_file(feature_path, features)

    arc = load_archive(archive_path)
    cfg = ComposerConfig()
    target = arc.get("gap-t")
    pool = {i: features[i] for i in arc.ids() if i != "gap-t"}
    comp0 = assess(target, features["gap-t"], pool, None, cfg)
    literature = [arc.get(c) for c in comp0.neighborhood.candidate_ids[:5]]
    prompt = build_bridge_prompt(target, literature, known=[]).prompt
    transcript_path = tmp_path / "transcript.jsonl"
    transcript_path.write_text(json.dumps({
        "prompt_hash": prompt_hash(prompt),
        "response": "planted bridge treatment increases common outcome",
    }) + "\n", encoding="utf-8")
    return archive_path, provider_path, feature_path, transcript_path


class TestBridgeCommand:
    def test_stub_fixture_converges(self, tmp_path, capsys):
        archive_path, provider_path, feature_path, transcript = \
            make_bridge_inputs(tmp_path)
        out = tmp_path / "bridge"
        code = run("bridge", "--archive", str(archive_path),
                   "--vectors", str(feature_path),
                   "--provider", f"file:{provider_path}",
                   "--target", "gap-t",
                   "--chat", "stub", "--stub-transcript", str(transcript),
                   "--out", str(out))
        assert code == 0
        assert "composable=True" in capsys.readouterr().out
        doc = json.loads((out / "bridge.json").read_text())
        assert doc["final_composable"] is True
        assert doc["rounds_run"] <= 2
        trace = doc["isolated_ratio_trace"]
        assert all(b <= a for a, b in zip(trace, trace[1:]))
        audit = sorted(p.name for p in (out / "audit").iterdir())
        assert audit == ["001_prompt.txt", "001_response.txt"]

    def test_non_gap_target_rejected(self, tmp_path, capsys):
        archive_path, provider_path, feature_path, transcript = \
            make_bridge_inputs(tmp_path)
        code = run("bridge", "--archive", str(archive_path),
                   "--vectors", str(feature_path),
                   "--provider", f"file:{provider_path}",
                   "--target", "src-b",
                   "--chat", "stub", "--stub-transcript", str(transcript))
        assert code == 2
        assert "already composable" in capsys.readouterr().err


    def test_provider_dimension_checked_before_round_one(self, tmp_path, capsys):
        archive_path, _, feature_path, transcript = make_bridge_inputs(tmp_path)
        code = run("bridge", "--archive", str(archive_path),
                   "--vectors", str(feature_path), "--provider", "stub:d=32",
                   "--target", "gap-t",
                   "--chat", "stub", "--stub-transcript", str(transcript),
                   "--out", str(tmp_path / "bridge"))
        assert code == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert "32" in err and "96" in err and "length 12" in err
        assert list((tmp_path / "bridge" / "audit").iterdir()) == []  # no chat call


class TestReconcileCommand:
    def _conflict_setup(self, tmp_path):
        run("atlas", "--archive", TOY, "--provider", "stub:d=8,seed=1",
            "--out", str(tmp_path / "a"))
        conflicts = [json.loads(l) for l in
                     (tmp_path / "a" / "conflicts.jsonl").read_text().splitlines()]
        assert conflicts, "toy archive should produce at least one conflict"
        return conflicts[0]["target_id"]

    def test_stub_no_marks_not_needed(self, tmp_path, capsys, monkeypatch):
        target = self._conflict_setup(tmp_path)
        # Build the exact prompt the command will send, then script "No".
        import exatlas.generators as generators_mod

        sent = {}
        real_build = generators_mod.build_reconciliation_prompt

        def capture(conflict, sources, tgt):
            req = real_build(conflict, sources, tgt)
            sent["prompt"] = req.prompt
            return req

        monkeypatch.setattr(generators_mod, "build_reconciliation_prompt", capture)

        class AnyNo:
            def complete(self, request):
                return "No"

        monkeypatch.setattr(generators_mod, "ScriptedStubChat",
                            type("S", (), {"from_file": staticmethod(
                                lambda path: AnyNo())}))
        transcript = tmp_path / "t.jsonl"
        transcript.write_text("", encoding="utf-8")
        out = tmp_path / "rec"
        code = run("reconcile", "--archive", TOY, "--provider", "stub:d=8,seed=1",
                   "--target", target, "--chat", "stub",
                   "--stub-transcript", str(transcript), "--out", str(out))
        assert code == 0
        assert "reconciliation needed: False" in capsys.readouterr().out
        doc = json.loads((out / "reconciliation.json").read_text())
        assert doc["needed"] is False
        assert "Q1" in sent["prompt"]

    def test_link_target_rejected(self, tmp_path, capsys):
        transcript = tmp_path / "t.jsonl"
        transcript.write_text("", encoding="utf-8")
        code = run("reconcile", "--archive", TOY, "--provider", "stub:d=8,seed=1",
                   "--target", "toy-001", "--chat", "stub",
                   "--stub-transcript", str(transcript))
        assert code == 2
        assert "not a conflict" in capsys.readouterr().err


class TestTheoryCheckCommand:
    def test_sweep_csv_and_zero_violations(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert run("theory-check", "--seed", "1", "--out", str(out)) == 0
        printed = capsys.readouterr().out
        assert "0 bound violations" in printed
        header = out.read_text().splitlines()[0]
        assert header == "seed,H,delta,d,realized_error,bound,slack,holds,residual_ok"

    def test_seed_reproduces_rows(self, tmp_path):
        outs = []
        for i in (1, 2):
            out = tmp_path / f"s{i}.csv"
            run("theory-check", "--seed", "7", "--out", str(out))
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestEndToEnd:
    def test_pipeline_byte_stable_across_runs(self, tmp_path):
        digests = []
        for attempt in (1, 2):
            base = tmp_path / f"run{attempt}"
            vec = base / "vectors.jsonl"
            run("ingest", "--archive", TOY, "--out", str(base / "normalized.jsonl"))
            run("embed", "--archive", TOY, "--provider", "stub:d=8,seed=1",
                "--out", str(vec))
            run("calibrate", "--archive", TOY, "--vectors", str(vec),
                "--grid", "0.1:1.2:0.05", "--out", str(base / "cal"))
            run("evaluate", "--archive", TOY, "--vectors", str(vec),
                "--out", str(base / "eval"))
            run("atlas", "--archive", TOY, "--vectors", str(vec),
                "--out", str(base / "atlas"))
            blobs = {}
            for path in sorted(base.rglob("*")):
                if path.is_file():
                    blobs[str(path.relative_to(base))] = path.read_bytes()
            digests.append(blobs)
        assert digests[0].keys() == digests[1].keys()
        for key in digests[0]:
            assert digests[0][key] == digests[1][key], key


def test_evaluate_does_not_import_numpy_ma():
    """numpy imports numpy.ma (about 8 ms) on the first np.unique call; no
    command should pay that. numpy 1.x imports it with numpy itself."""
    code = (
        "import contextlib, io, sys\n"
        "from exatlas.cli import main, toy_archive_path\n"
        "loaded = 'numpy.ma' in sys.modules\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['evaluate', '--archive', str(toy_archive_path()),\n"
        "                 '--provider', 'stub:d=8,seed=1']) == 0\n"
        "print(loaded or 'numpy.ma' not in sys.modules)\n"
    )
    src = str(Path(exatlas.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert proc.stdout.strip() == "True"
