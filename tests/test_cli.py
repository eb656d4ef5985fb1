from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import exatlas
from exatlas import cli as cli_mod
from exatlas import evaluator as evaluator_mod
from exatlas import representation as representation_mod
from exatlas.archive import load_archive
from exatlas.cli import MAX_GRID_POINTS, CliError, _parse_grid, main, toy_archive_path
from exatlas.composer import ComposerConfig, assess
from exatlas.generators import build_bridge_prompt, prompt_hash
from exatlas.representation import build_feature, read_vector_file, text_key, write_vector_file

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
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert report["n_total"] == 12
        assert report["lambda_used"] == pytest.approx(0.462)
        lines = (out / "results.jsonl").read_text(encoding="utf-8").splitlines()
        assert len(lines) == 12

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs a FIFO")
    def test_vectors_through_a_pipe(self, tmp_path):
        """A --vectors FIFO, which cannot seek, writes the bytes the file
        writes."""
        vec, fifo = tmp_path / "v.jsonl", tmp_path / "v.fifo"
        run("embed", "--archive", TOY, "--provider", "stub:d=8,seed=1", "--out", str(vec))
        os.mkfifo(fifo)
        copy = "import sys; open(sys.argv[2], 'wb').write(open(sys.argv[1], 'rb').read())"
        writer = subprocess.Popen([sys.executable, "-c", copy, str(vec), str(fifo)])
        try:
            code = run("evaluate", "--archive", TOY, "--vectors", str(fifo),
                       "--out", str(tmp_path / "piped"))
        finally:
            writer.kill()
            writer.wait()
        assert code == 0
        assert run("evaluate", "--archive", TOY, "--vectors", str(vec),
                   "--out", str(tmp_path / "file")) == 0
        for name in ("report.json", "results.jsonl"):
            assert (tmp_path / "piped" / name).read_bytes() == \
                (tmp_path / "file" / name).read_bytes()

    def test_lambda_override_respected(self, tmp_path):
        out = tmp_path / "eval"
        run("evaluate", "--archive", TOY, "--provider", "stub:d=8,seed=1",
            "--lambda", "0.9", "--out", str(out))
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert report["lambda_used"] == pytest.approx(0.9)
        assert report["n_composable"] >= 4


class TestConfig:
    @staticmethod
    def composer_config(monkeypatch, tmp_path, argv, config=None) -> ComposerConfig:
        """The ComposerConfig that ``main`` passes to the leave-one-out pass."""
        seen = []

        def loo_run(archive, features, cfg):
            seen.append(cfg)
            raise CliError("stop")

        monkeypatch.setattr(evaluator_mod, "loo_run", loo_run)
        pre = []
        if config is not None:
            path = tmp_path / "config.json"
            path.write_text(json.dumps(config), encoding="utf-8")
            pre = ["--config", str(path)]
        assert run(*pre, "evaluate", "--archive", TOY, "--provider", "stub:d=8", *argv) == 2
        (cfg,) = seen
        return cfg

    def test_defaults_are_composer_config_defaults(self, monkeypatch, tmp_path):
        assert self.composer_config(monkeypatch, tmp_path, []) == ComposerConfig()
        parser = cli_mod.build_parser()
        assert cli_mod._composer_config(parser.parse_args(["evaluate", "--archive", TOY])) \
            == ComposerConfig()

    def test_flag_over_config_over_default(self, monkeypatch, tmp_path):
        config = {"lambda_": 0.7, "ridge": 0.5, "max_candidates": 4}
        assert self.composer_config(monkeypatch, tmp_path, ["--lambda", "0.9"], config) \
            == ComposerConfig(lambda_=0.9, ridge=0.5, max_candidates=4)
        assert self.composer_config(monkeypatch, tmp_path, [], config) \
            == ComposerConfig(lambda_=0.7, ridge=0.5, max_candidates=4)

    def test_config_sets_each_commands_own_default(self, tmp_path, capsys):
        """One relax in the file is the default of both commands that take it,
        and a flag still wins over it."""
        transcript = tmp_path / "t.jsonl"
        transcript.write_text("", encoding="utf-8")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"relax": 3, "stub_transcript": str(transcript)}),
                          encoding="utf-8")
        argv = ["--archive", TOY, "--provider", "stub:d=8,seed=1"]
        assert run("--config", str(config), "atlas", *argv) == 0
        assert capsys.readouterr().out.endswith("conflicts at relax=3: 6\n")
        assert run("--config", str(config), "atlas", *argv, "--relax", "1") == 0
        assert capsys.readouterr().out.endswith("conflicts at relax=1: 2\n")
        assert run("--config", str(config), "reconcile", *argv, "--target", "toy-001") == 2
        assert capsys.readouterr().err == \
            "error: target 'toy-001' is not a conflict at relax=3\n"

    def test_stub_provider_spec_keeps_the_constructor_default(self):
        from exatlas.representation import DeterministicStubProvider

        assert vars(cli_mod.parse_embedding_provider("stub", 0)) == \
            vars(DeterministicStubProvider()) == {"dimension": 32, "seed": 0}

    def test_remote_provider_specs_keep_the_constructor_defaults(self):
        from exatlas.generators import RemoteChatProvider
        from exatlas.representation import RemoteEmbeddingProvider

        for made, default in (
                (cli_mod.parse_embedding_provider("remote:endpoint=http://x", 0),
                 RemoteEmbeddingProvider("http://x")),
                (cli_mod.parse_chat_provider("remote:endpoint=http://x,model=m", None),
                 RemoteChatProvider("http://x", "m"))):
            assert {k: v for k, v in vars(made).items() if not k.startswith("_")} \
                == {k: v for k, v in vars(default).items() if not k.startswith("_")}

    def test_remote_provider_spec_keys(self):
        emb = cli_mod.parse_embedding_provider(
            "remote:endpoint=http://x,model=m,d=4,batch=2", 0)
        assert (emb.model, emb.dimension, emb.batch_size) == ("m", 4, 2)
        chat = cli_mod.parse_chat_provider(
            "remote:endpoint=http://x,model=m,temperature=0.7,retries=1", None)
        assert (chat.temperature, chat.max_retries) == (0.7, 1)

    def test_config_keys_are_the_settings_read(self):
        """A config key is an option's dest, typed as its flag in every command
        that has it: every option but --archive, --out and --target."""
        types: dict[str, set] = {}
        for command in cli_mod._commands(cli_mod.build_parser()):
            for action in command._actions:
                if action.option_strings and action.dest not in (
                        "help", "archive", "out", "target"):
                    types.setdefault(action.dest, set()).add(action.type or str)
        assert types == {
            **dict.fromkeys(("cache_dir", "chat", "grid", "provider", "stub_transcript",
                             "vectors"), {str}),
            **dict.fromkeys(("max_candidates", "max_rounds", "seed"), {int}),
            **dict.fromkeys(("lambda_", "radius_factor", "relax", "ridge"), {float}),
        }
        assert cli_mod.CONFIG_KEYS == set(types)

    def test_config_file_is_applied(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"lambda_": 0.9}), encoding="utf-8")
        out = tmp_path / "eval"
        assert run("--config", str(config), "evaluate", "--archive", TOY,
                   "--provider", "stub:d=8,seed=1", "--out", str(out)) == 0
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert report["lambda_used"] == pytest.approx(0.9)


class TestHelp:
    @pytest.mark.parametrize("command", ["ingest", "embed", "evaluate", "calibrate", "atlas",
                                         "bridge", "reconcile", "theory-check"])
    def test_every_default_is_stated(self, command, capsys):
        """Rendering the help is what expands each %(default) in it; the
        default it states must be the parser's."""
        with pytest.raises(SystemExit):
            run(command, "--help")
        text = " ".join(capsys.readouterr().out.split())
        (parser,) = (p for p in cli_mod._commands(cli_mod.build_parser())
                     if p.prog.endswith(f" {command}"))
        for action in parser._actions:
            if action.dest not in cli_mod.CONFIG_KEYS:
                continue
            option = f"{action.option_strings[0]} {action.dest.upper()}"
            described = text.split(f" {option} ", 1)[1].split(" --", 1)[0]
            stated = re.search(r"\(default ([^,)]*)", described)
            if action.default is None:
                assert stated is None, option
            else:
                assert (action.type or str)(stated.group(1)) == action.default, option


# The cases of test_error_line_of_each_raise_site: each writes one bad input
# and returns (argv, the message of its error line).

def _record(exp_id, **fields):
    return {"id": exp_id, "treatment": "t", "outcome": "o", "context": "",
            "effect_size": 0.1, **fields}


def _ingest(tmp_path, *records):
    path = tmp_path / "a.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    return ["ingest", "--archive", str(path)]


def _bridge(tmp_path, target="gap-t", **reply):
    """bridge on the gap fixture, its one transcript record updated by ``reply``."""
    archive_path, provider_path, feature_path, transcript = make_bridge_inputs(tmp_path)
    record = json.loads(transcript.read_text(encoding="utf-8"))
    transcript.write_text(json.dumps({**record, **reply}) + "\n", encoding="utf-8")
    return ["bridge", "--archive", str(archive_path), "--vectors", str(feature_path),
            "--provider", f"file:{provider_path}", "--target", target,
            "--chat", "stub", "--stub-transcript", str(transcript)], record["prompt_hash"]


def _missing_field(tmp_path):
    bad = _record("b")
    del bad["effect_size"]
    return _ingest(tmp_path, _record("a"), bad), "missing required field 'effect_size' (line 2)"


def _empty_id(tmp_path):
    return (_ingest(tmp_path, _record("")),
            "invalid record '<unset>': field 'id' must be non-empty (line 1)")


def _duplicate_id(tmp_path):
    return (_ingest(tmp_path, _record("x"), _record("y"), _record("x")),
            "duplicate experiment id 'x' on lines 1 and 3")


def _unknown_target(tmp_path):
    return _bridge(tmp_path, target="nope")[0], "unknown experiment id 'nope'"


def _embed_through(tmp_path, text_vectors: str):
    """embed on the gap fixture's archive through a file: provider that holds
    ``text_vectors``."""
    archive_path, provider_path, _, _ = make_bridge_inputs(tmp_path)
    provider_path.write_text(text_vectors, encoding="utf-8")
    return ["embed", "--archive", str(archive_path), "--provider", f"file:{provider_path}",
            "--out", str(tmp_path / "v.jsonl")], provider_path


def _text_vector_dimension(tmp_path):
    argv, path = _embed_through(tmp_path, '{"id": "treat A", "values": [1.0, 0.0]}\n'
                                          '{"id": "common outcome", "values": [1.0]}\n')
    return argv, f"{path}:2: dimension mismatch: expected 2, got 1"


def _missing_text_vector(tmp_path):
    argv, _ = _embed_through(tmp_path, '{"id": "treat A", "values": [1.0, 0.0]}\n')
    return argv, f"experiment 'src-a': no stored vector for id {text_key('common outcome')!r}"


def _missing_transcript_hash(tmp_path):
    argv, wanted = _bridge(tmp_path, prompt_hash="0" * 64)
    return argv, f"scripted stub has no response for prompt hash {wanted}"


def _reply_without_proposals(tmp_path):
    return _bridge(tmp_path, response=" ; ; ")[0], "bridge reply contains no proposals"


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

    # At 6e153 each square is finite, but not their sum.
    @pytest.mark.parametrize("effect", [1e154, 1e200, 1.7e308, 6e153])
    def test_prediction_errors_that_overflow(self, tmp_path, capsys, effect):
        """Toy effects of alternating sign that load: evaluate and calibrate
        square the errors and fail; atlas squares none and writes its files."""
        archive = tmp_path / "archive.jsonl"
        archive.write_text("".join(
            json.dumps({**rec.to_record(), "effect_size": effect * (-1) ** k}) + "\n"
            for k, rec in enumerate(load_archive(TOY))), encoding="utf-8")
        for command in ("evaluate", "calibrate"):
            assert run(command, "--archive", str(archive), "--provider", "stub:d=8,seed=1",
                       "--out", str(tmp_path / command)) == 2
            assert self.one_error_line(capsys.readouterr().err) == \
                "error: squared prediction errors overflow"
            assert not any((tmp_path / command).iterdir())
        assert run("atlas", "--archive", str(archive), "--provider", "stub:d=8,seed=1",
                   "--out", str(tmp_path / "atlas")) == 0
        assert capsys.readouterr().err == ""
        assert (tmp_path / "atlas" / "atlas.json").is_file()

    @pytest.mark.parametrize("argv, config, message", [
        (["atlas", "--relax", "nan"], None, "relax_factor must be a finite number, got nan"),
        (["atlas", "--relax", "0.5"], None, "relax_factor must be >= 1"),
        (["reconcile", "--target", "toy-003", "--relax", "inf"], None,
         "relax_factor must be a finite number, got inf"),
        (["atlas"], {"relax": 0.5}, "relax_factor must be >= 1"),
        (["bridge", "--target", "toy-003", "--max-rounds", "0"], None,
         "max_rounds must be >= 1"),
    ])
    def test_bad_relax_and_rounds_fail_before_any_input(self, argv, config, message, tmp_path,
                                                        capsys, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("input read")

        monkeypatch.setattr(cli_mod, "read_vector_file", unreachable)
        monkeypatch.setattr(cli_mod, "load_archive", unreachable)
        pre = []
        if config is not None:
            path = tmp_path / "config.json"
            path.write_text(json.dumps(config), encoding="utf-8")
            pre = ["--config", str(path)]
        out = tmp_path / "out"
        assert run(*pre, *argv, "--archive", TOY, "--vectors", str(tmp_path / "v.jsonl"),
                   "--out", str(out)) == 2
        captured = capsys.readouterr()
        assert self.one_error_line(captured.err) == f"error: {message}"
        assert captured.out == ""
        assert not out.exists()

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

    def test_repeated_vector_id(self, tmp_path, capsys):
        """A vector file that repeats an id is rejected, as an archive is,
        whether it is read by --vectors or by the file: provider."""
        vec = tmp_path / "v.jsonl"
        run("embed", "--archive", TOY, "--provider", "stub:d=8,seed=1", "--out", str(vec))
        lines = vec.read_text(encoding="utf-8").splitlines()
        vec.write_text("\n".join(lines[:2] + lines[:1]) + "\n", encoding="utf-8")
        first = json.loads(lines[0])["id"]
        capsys.readouterr()
        for argv in (["evaluate", "--vectors", str(vec)], ["embed", "--provider", f"file:{vec}",
                                                          "--out", str(tmp_path / "out.jsonl")]):
            assert run(*argv, "--archive", TOY) == 2
            assert self.one_error_line(capsys.readouterr().err) == \
                f"error: {vec}:3: duplicate id {first!r} (first on line 1)"

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

    def test_repeated_transcript_hash(self, tmp_path, capsys):
        archive_path, provider_path, feature_path, transcript = make_bridge_inputs(tmp_path)
        record = json.loads(transcript.read_text(encoding="utf-8"))
        transcript.write_text(json.dumps(record) + "\n\n" + json.dumps(record) + "\n",
                              encoding="utf-8")
        assert run("bridge", "--archive", str(archive_path), "--vectors", str(feature_path),
                   "--provider", f"file:{provider_path}", "--target", "gap-t",
                   "--chat", "stub", "--stub-transcript", str(transcript)) == 2
        assert self.one_error_line(capsys.readouterr().err) == \
            f"error: {transcript}:3: duplicate prompt_hash {record['prompt_hash']!r} " \
            "(first on line 1)"

    def test_malformed_embedding_cache(self, tmp_path, capsys, monkeypatch):
        def no_request(*args, **kwargs):
            raise AssertionError("a request was sent")

        monkeypatch.setattr(representation_mod, "post_json", no_request)
        cache = tmp_path / "m.jsonl"
        cache.write_text("{\n", encoding="utf-8")
        assert run("embed", "--archive", TOY, "--provider",
                   "remote:endpoint=http://127.0.0.1:9,model=m", "--cache-dir", str(tmp_path),
                   "--out", str(tmp_path / "v.jsonl")) == 2
        captured = capsys.readouterr()
        assert self.one_error_line(captured.err) == \
            f"error: {cache}:1: invalid JSON: Expecting property name enclosed in double quotes"
        assert captured.out == ""

    @pytest.mark.parametrize("path", ["vectors", "file", "cache"])
    def test_empty_vector_values(self, path, tmp_path, capsys, monkeypatch):
        """A vector of length 0 is rejected with its line, whichever path reads
        it: at the parent all three read it, and evaluate reported 100%
        coverage over features of length 0."""
        def no_request(*args, **kwargs):
            raise AssertionError("a request was sent")

        monkeypatch.setattr(representation_mod, "post_json", no_request)
        archive = tmp_path / "archive.jsonl"
        archive.write_text("".join(json.dumps(
            {"id": i, "treatment": f"t {i}", "outcome": f"o {i}", "context": "",
             "effect_size": 1.0}) + "\n" for i in ("a", "b")), encoding="utf-8")
        vectors = tmp_path / "m.jsonl"
        vectors.write_text("".join(json.dumps({"id": k, "values": []}) + "\n"
                                   for k in (("a", "b") if path == "vectors" else
                                             (text_key("t a"), text_key("o a")))),
                           encoding="utf-8")
        source = {"vectors": ["--vectors", str(vectors)],
                  "file": ["--provider", f"file:{vectors}"],
                  "cache": ["--provider", "remote:endpoint=http://127.0.0.1:9,model=m",
                            "--cache-dir", str(tmp_path)]}[path]
        assert run("evaluate", "--archive", str(archive), *source) == 2
        captured = capsys.readouterr()
        assert self.one_error_line(captured.err) == \
            f"error: {vectors}:1: values must not be empty"
        assert captured.out == ""

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

    @pytest.mark.parametrize("command", ["evaluate", "calibrate", "atlas", "reconcile"])
    def test_unusable_out_fails_before_the_pass(self, command, tmp_path, capsys, monkeypatch):
        def loo_run(*args, **kwargs):
            raise AssertionError("loo_run called")

        monkeypatch.setattr(evaluator_mod, "loo_run", loo_run)
        blocker = tmp_path / "file"
        blocker.write_text("", encoding="utf-8")
        extra = ["--target", "toy-003", "--stub-transcript", str(blocker)] \
            if command == "reconcile" else []
        assert run(command, "--archive", TOY, "--provider", "stub:d=8", *extra,
                   "--out", str(blocker / "out")) == 2
        assert str(blocker / "out") in self.one_error_line(capsys.readouterr().err)

    def test_out_of_memory(self, monkeypatch, capsys):
        def loo_run(*args, **kwargs):
            raise MemoryError("Unable to allocate 487. MiB for an array")

        monkeypatch.setattr(evaluator_mod, "loo_run", loo_run)
        assert run("evaluate", "--archive", TOY, "--provider", "stub:d=8") == 2
        captured = capsys.readouterr()
        assert self.one_error_line(captured.err) == \
            "error: out of memory: Unable to allocate 487. MiB for an array"
        assert captured.out == ""

    def test_vector_file_missing_ids(self, tmp_path, capsys):
        vec = tmp_path / "v.jsonl"
        run("embed", "--archive", TOY, "--provider", "stub:d=8,seed=1", "--out", str(vec))
        lines = vec.read_text(encoding="utf-8").splitlines()
        vec.write_text("\n".join(lines[:3] + lines[4:5]) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert run("evaluate", "--archive", TOY, "--vectors", str(vec)) == 2
        assert self.one_error_line(capsys.readouterr().err) == \
            "error: features missing for ids: " \
            "['toy-004', 'toy-006', 'toy-007', 'toy-008', 'toy-009']"

    def test_composer_error(self, monkeypatch, capsys):
        from exatlas import evaluator as evaluator_mod
        from exatlas.composer import ComposerError

        def fail(*args, **kwargs):
            raise ComposerError("candidate pool is empty")

        monkeypatch.setattr(evaluator_mod, "loo_run", fail)
        assert run("evaluate", "--archive", TOY, "--provider", "stub:d=8") == 2
        assert self.one_error_line(capsys.readouterr().err) == \
            "error: candidate pool is empty"

    @pytest.mark.parametrize("case", [
        _missing_field, _empty_id, _duplicate_id, _unknown_target, _text_vector_dimension,
        _missing_text_vector, _missing_transcript_hash, _reply_without_proposals])
    def test_error_line_of_each_raise_site(self, case, tmp_path, capsys):
        """The whole error line of one input per message that a module raises."""
        argv, message = case(tmp_path)
        assert run(*argv) == 2
        captured = capsys.readouterr()
        assert self.one_error_line(captured.err) == f"error: {message}"
        assert captured.out == ""

    @pytest.mark.parametrize("spec, message", [
        ("stub:dim=16", "unknown key 'dim' in provider spec 'stub:dim=16'"),
        ("stub:d=16,d=8", "repeated key 'd' in provider spec 'stub:d=16,d=8'"),
        ("stub:d=x", "provider spec 'stub:d=x': d must be an integer"),
        ("stub:seed=1.5", "provider spec 'stub:seed=1.5': seed must be an integer"),
        ("stub:d", "expected key=value in provider spec, got 'd'"),
        ("remote:endpoint=http://x,modle=m",
         "unknown key 'modle' in provider spec 'remote:endpoint=http://x,modle=m'"),
        ("remote:endpoint=http://x,endpoint=http://y",
         "repeated key 'endpoint' in provider spec 'remote:endpoint=http://x,endpoint=http://y'"),
        ("remote:endpoint=http://x,batch=",
         "provider spec 'remote:endpoint=http://x,batch=': batch must be an integer"),
        ("stub:d=0", "provider spec 'stub:d=0': dimension must be positive"),
        ("remote:endpoint=http://x,d=0",
         "provider spec 'remote:endpoint=http://x,d=0': dimension must be positive"),
        ("remote:endpoint=http://x,batch=0",
         "provider spec 'remote:endpoint=http://x,batch=0': batch_size must be positive"),
    ])
    def test_bad_embedding_provider_spec(self, spec, message, tmp_path, capsys):
        with pytest.raises(CliError, match=f"^{re.escape(message)}$"):
            cli_mod.parse_embedding_provider(spec, 0)
        out = tmp_path / "v.jsonl"
        assert run("embed", "--archive", TOY, "--provider", spec, "--out", str(out)) == 2
        assert self.one_error_line(capsys.readouterr().err) == f"error: {message}"
        assert not out.exists()

    @pytest.mark.parametrize("spec, message", [
        ("remote:endpoint=http://x,model=m,temprature=0",
         "unknown key 'temprature' in provider spec 'remote:endpoint=http://x,model=m,temprature=0'"),
        ("remote:endpoint=http://x,model=m,retries=1,retries=2",
         "repeated key 'retries' in provider spec "
         "'remote:endpoint=http://x,model=m,retries=1,retries=2'"),
        ("remote:endpoint=http://x,model=m,temperature=warm",
         "provider spec 'remote:endpoint=http://x,model=m,temperature=warm': "
         "temperature must be a finite number"),
        ("remote:endpoint=http://x,model=m,temperature=nan",
         "provider spec 'remote:endpoint=http://x,model=m,temperature=nan': "
         "temperature must be a finite number"),
        ("remote:endpoint=http://x,model=m,retries=x",
         "provider spec 'remote:endpoint=http://x,model=m,retries=x': retries must be an integer"),
        ("stub:seed=1", "unknown key 'seed' in provider spec 'stub:seed=1'"),
        ("remote:endpoint=http://x,model=m,retries=-2",
         "provider spec 'remote:endpoint=http://x,model=m,retries=-2': "
         "max_retries must not be negative"),
    ])
    def test_bad_chat_provider_spec(self, spec, message, tmp_path, capsys):
        with pytest.raises(CliError, match=f"^{re.escape(message)}$"):
            cli_mod.parse_chat_provider(spec, None)
        argv, _ = _bridge(tmp_path)
        assert run(*argv, "--chat", spec) == 2
        assert self.one_error_line(capsys.readouterr().err) == f"error: {message}"

    def test_embed_fails_on_unusable_out_before_embedding(self, tmp_path, capsys,
                                                          monkeypatch):
        calls = []
        real = representation_mod.DeterministicStubProvider.embed

        def counting(self, text):
            calls.append(text)
            return real(self, text)

        monkeypatch.setattr(representation_mod.DeterministicStubProvider, "embed", counting)
        blocker = tmp_path / "file"
        blocker.write_text("", encoding="utf-8")
        assert run("embed", "--archive", TOY, "--provider", "stub:d=8",
                   "--out", str(blocker / "v.jsonl")) == 2
        assert str(blocker) in self.one_error_line(capsys.readouterr().err)
        assert calls == []

    def test_theory_check_fails_on_unusable_out_before_the_sweep(self, tmp_path, capsys,
                                                                 monkeypatch):
        def bound_sweep(*args, **kwargs):
            raise AssertionError("bound_sweep called")

        monkeypatch.setattr(cli_mod.theory_lab, "bound_sweep", bound_sweep)
        blocker = tmp_path / "file"
        blocker.write_text("", encoding="utf-8")
        assert run("theory-check", "--out", str(blocker / "sweep.csv")) == 2
        assert str(blocker) in self.one_error_line(capsys.readouterr().err)


class TestCalibrate:
    def test_curve_csv_and_chosen_lambda(self, tmp_path, capsys):
        out = tmp_path / "cal"
        assert run("calibrate", "--archive", TOY, "--provider", "stub:d=8,seed=1",
                   "--grid", "0.1:1.0:0.1", "--out", str(out)) == 0
        assert "chosen lambda" in capsys.readouterr().out
        rows = (out / "curve.csv").read_text(encoding="utf-8").splitlines()
        assert rows[0] == "lambda,coverage,mse,scaled_mse,objective"
        assert len(rows) == 11
        coverages = [float(r.split(",")[1]) for r in rows[1:]]
        assert all(b >= a for a, b in zip(coverages, coverages[1:]))

    def test_calibration_json_written(self, tmp_path):
        out = tmp_path / "cal"
        run("calibrate", "--archive", TOY, "--provider", "stub:d=8,seed=1",
            "--grid", "0.1:1.0:0.1", "--out", str(out))
        doc = json.loads((out / "calibration.json").read_text(encoding="utf-8"))
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
        doc = json.loads((out / "atlas.json").read_text(encoding="utf-8"))
        assert {n["id"] for n in doc["nodes"]} == set(load_archive(TOY).ids())
        assert (out / "atlas.dot").read_text(encoding="utf-8").startswith("digraph atlas {")
        comp_lines = (out / "compositions.jsonl").read_text(encoding="utf-8").splitlines()
        assert len(comp_lines) == 12
        first = json.loads(comp_lines[0])
        assert set(first) == {"target_id", "weights", "r", "rho",
                              "composed_effect", "composable", "solver_status"}

    def test_routes_follow_the_rule_on_results(self, tmp_path, capsys):
        out = tmp_path / "atlas"
        assert run("atlas", "--archive", TOY, "--provider", "stub:d=8,seed=1",
                   "--relax", "1", "--out", str(out)) == 0
        expected, signs = {}, {}
        for line in (out / "results.jsonl").read_text(encoding="utf-8").splitlines():
            r = json.loads(line)
            signs[r["target_id"]] = int(np.sign(r["observed_effect"]))
            if not r["composable"]:
                expected[r["target_id"]] = "gap"
            elif np.sign(r["predicted_effect"]) == np.sign(r["observed_effect"]):
                expected[r["target_id"]] = "link"
            else:
                expected[r["target_id"]] = "conflict"
        doc = json.loads((out / "atlas.json").read_text(encoding="utf-8"))
        assert {n["id"]: n["status"] for n in doc["nodes"]} == expected
        assert {n["id"]: n["sign"] for n in doc["nodes"]} == signs
        conflicts = sorted(i for i, s in expected.items() if s == "conflict")
        assert doc["conflicts"] == conflicts
        mined = [json.loads(l)["target_id"]
                 for l in (out / "conflicts.jsonl").read_text(encoding="utf-8").splitlines()]
        assert mined == conflicts
        counts = [sum(s == k for s in expected.values())
                  for k in ("link", "conflict", "gap")]
        assert capsys.readouterr().out.splitlines() == [
            "links: {}  conflicts: {}  gaps: {}".format(*counts),
            f"conflicts at relax=1: {len(conflicts)}",
        ]

    def test_relax_factor_one_equals_strict(self, tmp_path):
        outs = {}
        for relax in ("1.0", "1.5"):
            out = tmp_path / f"atlas{relax}"
            run("atlas", "--archive", TOY, "--provider", "stub:d=8,seed=1",
                "--relax", relax, "--out", str(out))
            lines = (out / "conflicts.jsonl").read_text(encoding="utf-8").splitlines()
            outs[relax] = [json.loads(l) for l in lines]
        strict_ids = {c["target_id"] for c in outs["1.0"]}
        relaxed_ids = {c["target_id"] for c in outs["1.5"]}
        assert strict_ids <= relaxed_ids
        assert all(c["relaxed"] is False for c in outs["1.0"])

    def test_relaxed_conflicts_follow_the_rule_on_results(self, tmp_path):
        out = tmp_path / "atlas"
        assert run("atlas", "--archive", TOY, "--provider", "stub:d=8,seed=1",
                   "--relax", "1.5", "--out", str(out)) == 0

        def jsonl(name):
            return [json.loads(l) for l in (out / name).read_text(encoding="utf-8").splitlines()]

        weights = {c["target_id"]: c["weights"] for c in jsonl("compositions.jsonl")}
        relaxed_lambda = 1.5 * ComposerConfig().lambda_
        expected = [
            {"target_id": r["target_id"], "weights": weights[r["target_id"]],
             "composed_effect": r["predicted_effect"],
             "observed_effect": r["observed_effect"],
             "relaxed": not r["composable"]}
            for r in sorted(jsonl("results.jsonl"), key=lambda r: r["target_id"])
            if r["rho"] <= relaxed_lambda
            and np.sign(r["predicted_effect"]) != np.sign(r["observed_effect"])
        ]
        assert jsonl("conflicts.jsonl") == expected
        assert [c["relaxed"] for c in expected].count(True) == 3
        assert len(expected) == 5


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
        doc = json.loads((out / "bridge.json").read_text(encoding="utf-8"))
        assert doc["final_composable"] is True
        assert doc["rounds_run"] <= 2
        trace = doc["isolated_ratio_trace"]
        assert all(b <= a for a, b in zip(trace, trace[1:]))
        audit = sorted(p.name for p in (out / "audit").iterdir())
        assert audit == ["001_prompt.txt", "001_response.txt"]

    @pytest.mark.parametrize("vectors", [False, True])
    def test_one_embedding_provider(self, tmp_path, capsys, monkeypatch, vectors):
        """bridge embeds the archive, when it reads no --vectors, and the
        proposals with one provider."""
        archive_path, provider_path, feature_path, transcript = make_bridge_inputs(tmp_path)
        built = []
        real = cli_mod.parse_embedding_provider

        def counting(*args, **kwargs):
            built.append(real(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(cli_mod, "parse_embedding_provider", counting)
        extra = ["--vectors", str(feature_path)] if vectors else []
        assert run("bridge", "--archive", str(archive_path), *extra,
                   "--provider", f"file:{provider_path}", "--target", "gap-t",
                   "--chat", "stub", "--stub-transcript", str(transcript)) == 0
        assert "composable=True" in capsys.readouterr().out
        assert len(built) == 1

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


    def test_vector_file_missing_the_target(self, tmp_path, capsys):
        archive_path, provider_path, feature_path, transcript = make_bridge_inputs(tmp_path)
        lines = feature_path.read_text(encoding="utf-8").splitlines()
        feature_path.write_text("\n".join(l for l in lines if '"gap-t"' not in l) + "\n",
                                encoding="utf-8")
        code = run("bridge", "--archive", str(archive_path), "--vectors", str(feature_path),
                   "--provider", f"file:{provider_path}", "--target", "gap-t",
                   "--chat", "stub", "--stub-transcript", str(transcript))
        assert code == 2
        assert capsys.readouterr().err == "error: features missing for ids: ['gap-t']\n"

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
                     (tmp_path / "a" / "conflicts.jsonl").read_text(encoding="utf-8").splitlines()]
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
        doc = json.loads((out / "reconciliation.json").read_text(encoding="utf-8"))
        assert doc["needed"] is False
        assert "Q1" in sent["prompt"]

    def test_assesses_only_its_target(self, tmp_path, monkeypatch):
        """One target is assessed, on one Gram row, and its prompt is the one
        built from the conflict that the whole leave-one-out pass mines."""
        import exatlas.atlas as atlas_mod
        import exatlas.generators as generators_mod

        vec = tmp_path / "vectors.jsonl"
        run("embed", "--archive", TOY, "--provider", "stub:d=8,seed=1", "--out", str(vec))
        archive, features, cfg = load_archive(TOY), read_vector_file(vec), ComposerConfig()
        conflicts = atlas_mod.mine_conflicts(evaluator_mod.loo_run(archive, features, cfg),
                                             cfg, 1.5)
        assert any(c.composable for c in conflicts) and not all(c.composable for c in conflicts)
        assessed = []
        real = evaluator_mod.assess_rows

        def recording(store, *args):
            assessed.append(([store.ids[t] for t in store.targets], store.gram.shape))
            return real(store, *args)

        monkeypatch.setattr(evaluator_mod, "assess_rows", recording)
        for conflict in conflicts:
            prompt = generators_mod.build_reconciliation_prompt(
                conflict, [archive.get(i) for i in conflict.composition.weights],
                archive.get(conflict.target_id)).prompt
            transcript = tmp_path / "t.jsonl"
            transcript.write_text(json.dumps({"prompt_hash": prompt_hash(prompt),
                                              "response": "No"}) + "\n", encoding="utf-8")
            out = tmp_path / conflict.target_id
            assessed.clear()
            assert run("reconcile", "--archive", TOY, "--vectors", str(vec),
                       "--target", conflict.target_id, "--relax", "1.5", "--chat", "stub",
                       "--stub-transcript", str(transcript), "--out", str(out)) == 0
            assert assessed == [([conflict.target_id], (1, len(archive)))]
            assert (out / "audit" / "001_prompt.txt").read_text(encoding="utf-8") == prompt

    def test_link_target_rejected(self, tmp_path, capsys):
        transcript = tmp_path / "t.jsonl"
        transcript.write_text("", encoding="utf-8")
        code = run("reconcile", "--archive", TOY, "--provider", "stub:d=8,seed=1",
                   "--target", "toy-001", "--chat", "stub",
                   "--stub-transcript", str(transcript))
        assert code == 2
        assert capsys.readouterr().err == \
            "error: target 'toy-001' is not a conflict at relax=1\n"

    @pytest.mark.parametrize("command", ["reconcile", "bridge"])
    def test_unknown_target_rejected_before_features(self, command, tmp_path, capsys,
                                                     monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("features read for an unknown target")

        monkeypatch.setattr(evaluator_mod, "loo_run", unreachable)
        monkeypatch.setattr(cli_mod, "_features_for", unreachable)
        transcript = tmp_path / "t.jsonl"
        transcript.write_text("", encoding="utf-8")
        code = run(command, "--archive", TOY, "--provider", "stub:d=8,seed=1",
                   "--target", "nope", "--chat", "stub",
                   "--stub-transcript", str(transcript))
        assert code == 2
        assert capsys.readouterr().err == "error: unknown experiment id 'nope'\n"


class TestTheoryCheckCommand:
    def test_sweep_csv_and_zero_violations(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert run("theory-check", "--seed", "1", "--out", str(out)) == 0
        printed = capsys.readouterr().out
        assert "0 bound violations" in printed
        header = out.read_text(encoding="utf-8").splitlines()[0]
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


    @staticmethod
    def atlas_inputs(tmp_path) -> tuple[Path, Path]:
        """An archive of 200 rows of length 384, large enough that OpenBLAS
        splits its Gram product across threads and that a pass has four
        blocks, with its vector file."""
        rng = np.random.default_rng(5)
        n, length = 200, 384
        rows = rng.standard_normal((n, 6)) @ rng.standard_normal((6, length))
        rows += 0.05 * rng.standard_normal((n, length))
        ids = [f"exp-{k:03d}" for k in range(n)]
        archive = tmp_path / "archive.jsonl"
        archive.write_text("".join(
            json.dumps({"id": i, "treatment": f"t {i}", "outcome": f"o {i}", "context": "",
                        "effect_size": float(rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 1.0))})
            + "\n" for i in ids), encoding="utf-8")
        vectors = tmp_path / "vectors.jsonl"
        write_vector_file(vectors, dict(zip(ids, rows)))
        return archive, vectors

    @staticmethod
    def src_env(**env: str) -> dict[str, str]:
        src = str(Path(exatlas.__file__).parents[1])
        return {**os.environ, **env, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}

    def test_atlas_bytes_independent_of_blas_threads(self, tmp_path):
        """``atlas --out`` at one and two BLAS threads, in fresh interpreters."""
        archive, vectors = self.atlas_inputs(tmp_path)
        seen = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            env = self.src_env(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                               MKL_NUM_THREADS=threads)
            proc = subprocess.run([sys.executable, "-m", "exatlas.cli", "atlas",
                                   "--archive", str(archive), "--vectors", str(vectors),
                                   "--out", str(out)],
                                  capture_output=True, text=True, encoding="utf-8", env=env,
                                  check=True)
            files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
            seen.append((proc.stdout, files))
        assert re.match(r"links: [1-9]\d*  conflicts: [1-9]", seen[0][0]), seen[0][0]
        assert seen[0] == seen[1]

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity")
                        or len(os.sched_getaffinity(0)) < 2, reason="needs two usable CPUs")
    def test_atlas_bytes_independent_of_processes(self, tmp_path):
        """``atlas --out`` in a fresh interpreter with the BLAS variables
        unset, once on one CPU, where every pass runs in one process, and once
        on all CPUs, where the CLI's one BLAS thread lets each pass fork."""
        archive, vectors = self.atlas_inputs(tmp_path)
        code = ("import os, sys\n"
                "if sys.argv[1] == 'one':\n"
                "    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
                "forks, fork = [], os.fork\n"
                "os.fork = lambda: forks.append(1) or fork()\n"
                "from exatlas.cli import main\n"
                "code = main(sys.argv[2:])\n"
                "print('forks', len(forks), file=sys.stderr)\n"
                "sys.exit(code)\n")
        env = {k: v for k, v in self.src_env().items()
               if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
        seen = []
        for cpus in ("one", "all"):
            out = tmp_path / cpus
            proc = subprocess.run([sys.executable, "-c", code, cpus, "atlas",
                                   "--archive", str(archive), "--vectors", str(vectors),
                                   "--out", str(out)],
                                  capture_output=True, text=True, encoding="utf-8", env=env,
                                  check=True)
            files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
            seen.append((proc.stdout, files, proc.stderr))
        assert seen[0][2] == "forks 0\n"
        # atlas runs one pass of four blocks: a child per usable CPU but the first.
        assert seen[1][2] == f"forks {min(len(os.sched_getaffinity(0)), 4) - 1}\n"
        assert seen[0][:2] == seen[1][:2]


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts threads on Linux")
@pytest.mark.parametrize("user", [None, "2"])
def test_cli_pins_blas_to_one_thread(user):
    """Importing exatlas.cli with the BLAS variables unset leaves a process
    of one thread, numpy loaded; a value the user sets is kept."""
    code = ("import os, sys\n"
            "import exatlas.cli\n"
            "print(len(os.listdir('/proc/self/task')), 'numpy' in sys.modules,\n"
            "      *(os.environ[v] for v in ('OPENBLAS_NUM_THREADS', 'OMP_NUM_THREADS',\n"
            "                                'MKL_NUM_THREADS')))\n")
    src = str(Path(exatlas.__file__).parents[1])
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    if user is not None:
        env["OPENBLAS_NUM_THREADS"] = user
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          encoding="utf-8", env=env, check=True)
    if user is None:
        assert proc.stdout == "1 True 1 1 1\n"
    else:
        assert proc.stdout.split()[1:] == ["True", user, "1", "1"]


def test_package_exports_load_on_first_use():
    """Every name in ``exatlas.__all__`` resolves, and is listed by ``dir``;
    another name raises AttributeError."""
    for name in exatlas.__all__:
        assert getattr(exatlas, name) is not None
        assert name in dir(exatlas)
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        exatlas.nope


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
                          encoding="utf-8", env=env, check=True)
    assert proc.stdout.strip() == "True"
