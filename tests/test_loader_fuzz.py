"""Fuzzing every input loader: the archive, vector files, chat transcripts and
``--config`` files.

A loader either succeeds or raises its own module's error type. At the CLI, a
command given such a file either succeeds or exits 2 with exactly one
``error:`` line; any other exception escapes ``main`` and fails the test.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st
from test_cli import make_bridge_inputs
from test_vector_file import new_file

from exatlas.archive import ArchiveError, load_archive
from exatlas.cli import CONFIG_KEYS, CliError, _load_config_file, main, toy_archive_path
from exatlas.generators import ChatError, ScriptedStubChat
from exatlas.representation import (EmbeddingError, RemoteEmbeddingProvider,
                                    read_vector_file)

TOY = toy_archive_path()
TOY_LINES = TOY.read_text(encoding="utf-8").splitlines()
TOY_RECORDS = [json.loads(line) for line in TOY_LINES]

FUZZ = settings(max_examples=200, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture,
                                       HealthCheck.too_slow])

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
    | st.sampled_from([10**400, -(10**25), 1e308, -0.0]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4),
                                                                inner, max_size=3),
    max_leaves=6,
)
GARBAGE_LINES = st.sampled_from(["", "  ", "{", "null", "[]", "{}", "NaN", "\ufeff{}"])
# Deeper than json.loads can recurse.
DEEP = "[" * 5000 + "]" * 5000


@st.composite
def mutated_record(draw, records, keys):
    """One of ``records`` with fields replaced by arbitrary JSON or dropped."""
    rec = dict(draw(st.sampled_from(records)))
    for _ in range(draw(st.integers(0, 2))):
        key = draw(st.sampled_from(keys))
        if draw(st.integers(0, 3)) == 0:
            rec.pop(key, None)
        else:
            rec[key] = draw(JSON)
    return json.dumps(rec, ensure_ascii=draw(st.booleans()))


@st.composite
def jsonl_file(draw, valid_lines, bad_line):
    """Some of ``valid_lines`` with up to two lines replaced or inserted:
    ``bad_line``, stray text or any JSON value. One file in ten also gets a
    byte that is not UTF-8."""
    lines = list(draw(valid_lines))
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(lines)))
        line = draw(st.one_of(bad_line, bad_line, GARBAGE_LINES, JSON.map(json.dumps)))
        if at < len(lines) and draw(st.booleans()):
            lines[at] = line
        else:
            lines.insert(at, line)
    data = "\n".join(lines).encode("utf-8") + draw(st.sampled_from([b"", b"\n"]))
    if draw(st.integers(0, 9)) == 0:
        cut = draw(st.integers(0, len(data)))
        data = data[:cut] + draw(st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80"])) \
            + data[cut:]
    return data


def run_cli(capsys, *argv) -> int:
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    event(f"{argv[0]} exit {code}")
    assert "Traceback" not in captured.err
    if code != 0:
        lines = captured.err.strip().splitlines()
        assert code == 2 and len(lines) == 1 and lines[0].startswith("error: "), \
            (code, captured.err)
    return code


# -- archives --------------------------------------------------------------

ARCHIVE_KEYS = ["id", "treatment", "outcome", "context", "enriched_treatment",
                "enriched_outcome", "effect_size", "source_ref", "extra"]
ARCHIVE_FILE = jsonl_file(st.lists(st.sampled_from(TOY_LINES), max_size=4, unique=True),
                          mutated_record(TOY_RECORDS, ARCHIVE_KEYS))


@FUZZ
@given(data=ARCHIVE_FILE)
@example(data=f'{{"id": "a", "treatment": {DEEP}}}\n'.encode())
def test_load_archive(tmp_path, data):
    try:
        load_archive(new_file(tmp_path, data))
    except ArchiveError:
        pass


def with_effects(*effects: float) -> bytes:
    """The first toy records, one for each of ``effects``, which they take."""
    return "".join(json.dumps({**rec, "effect_size": e}) + "\n"
                   for rec, e in zip(TOY_RECORDS, effects)).encode()


@FUZZ
@given(data=ARCHIVE_FILE)
@example(data=f'{{"id": "a", "treatment": {DEEP}}}\n'.encode())
# Squared prediction errors, and sums of them, that overflow a double.
@example(data=with_effects(1e154, -1e154, 1e154, -1e154))
@example(data=with_effects(1.7e308, -1.7e308, 1.7e308, -1.7e308))
@example(data=with_effects(6e153, -6e153, 6e153, -6e153, 6e153, -6e153))
def test_archive_at_the_cli(tmp_path, capsys, data):
    """Every command that reads an archive alone, the leave-one-out ones too."""
    path = new_file(tmp_path, data)
    out = Path(tempfile.mkdtemp(dir=tmp_path))
    run_cli(capsys, "ingest", "--archive", path, "--out", out / "archive.jsonl")
    run_cli(capsys, "embed", "--archive", path, "--provider", "stub:d=4",
            "--out", out / "vectors.jsonl")
    for command in ("evaluate", "calibrate", "atlas"):
        run_cli(capsys, command, "--archive", path, "--provider", "stub:d=4",
                "--out", out / command)


# -- vector files ------------------------------------------------------------

VECTOR_ARCHIVE = TOY_LINES[:3]
VECTOR_IDS = [rec["id"] for rec in TOY_RECORDS[:3]]
NUMBER = st.one_of(st.floats(), st.integers(), st.sampled_from([10**400, -0.0, True]))


@st.composite
def vector_lines(draw):
    """One finite vector of one length for each of ``VECTOR_IDS``."""
    dim = draw(st.integers(1, 3))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    return [json.dumps({"id": i, "values": draw(st.lists(finite, min_size=dim,
                                                         max_size=dim))})
            for i in VECTOR_IDS]


@st.composite
def vector_record(draw):
    dim = draw(st.sampled_from([0, 1, 2, 3]))
    rec = {"id": draw(st.sampled_from(VECTOR_IDS) | JSON),
           "values": draw(st.lists(NUMBER, min_size=dim, max_size=dim) | JSON)}
    return json.dumps(rec) if draw(st.booleans()) else draw(
        mutated_record([rec], ["id", "values"]))


VECTOR_FILE = jsonl_file(vector_lines(), vector_record())


@FUZZ
@given(data=VECTOR_FILE)
@example(data=f'{{"id": {DEEP}, "values": [1.0]}}\n'.encode())
def test_read_vector_file(tmp_path, data):
    try:
        read_vector_file(new_file(tmp_path, data))
    except EmbeddingError:
        pass


@FUZZ
@given(data=VECTOR_FILE)
def test_vector_file_at_the_cli(tmp_path, capsys, data):
    archive = tmp_path / "archive.jsonl"
    if not archive.exists():
        archive.write_text("\n".join(VECTOR_ARCHIVE) + "\n", encoding="utf-8")
    run_cli(capsys, "evaluate", "--archive", archive, "--vectors", new_file(tmp_path, data))


# -- chat transcripts ----------------------------------------------------------

@FUZZ
@given(data=st.data())
def test_transcripts(tmp_path, capsys, data):
    """Unit and CLI at once: the bridge fixture's one reply, fuzzed."""
    inputs = tmp_path / "bridge"
    if not inputs.exists():
        inputs.mkdir()
        make_bridge_inputs(inputs)
    archive, provider, features, transcript = (
        inputs / "archive.jsonl", inputs / "text_vectors.jsonl",
        inputs / "features.jsonl", inputs / "transcript.jsonl")
    planted = json.loads(transcript.read_text(encoding="utf-8"))
    reply = st.text(st.sampled_from("planted bridge treatment increases common outcome;,. "),
                    max_size=60)
    records = [planted, {**planted, "response": data.draw(reply)}]
    path = new_file(tmp_path, data.draw(jsonl_file(
        st.just([json.dumps(records[1])]),
        mutated_record(records, ["prompt_hash", "response"]))))
    try:
        ScriptedStubChat.from_file(path)
    except ChatError:
        pass
    run_cli(capsys, "bridge", "--archive", archive, "--vectors", features,
            "--provider", f"file:{provider}", "--target", "gap-t",
            "--chat", "stub", "--stub-transcript", path, "--max-rounds", 2)


# -- --config files --------------------------------------------------------------

# Values that cannot reach the network or allocate without bound, however the
# keys are combined; every other key takes any JSON value.
SAFE_VALUES = {
    "provider": st.sampled_from(["stub", "stub:d=4", "stub:d=x", "file:", "nope", ""]),
    "chat": st.sampled_from(["stub", "nope"]),
    "cache_dir": st.just("unused"),
}


@st.composite
def config_file(draw):
    keys = draw(st.lists(st.sampled_from(sorted(CONFIG_KEYS) + ["lamda"]), max_size=4))
    doc = {k: draw(st.one_of(SAFE_VALUES[k], JSON.filter(
        lambda v: not isinstance(v, (int, str)) or isinstance(v, bool))))
           if k in SAFE_VALUES else draw(JSON) for k in keys}
    text = json.dumps(doc)
    if draw(st.integers(0, 9)) == 0:
        text = draw(JSON.map(json.dumps) | st.sampled_from(["", "{", "lambda_ = 1"]))
    return text.encode("utf-8")


@FUZZ
@given(data=config_file())
@example(data=f'{{"grid": {DEEP}}}'.encode())
@example(data=b'{"radius_factor": 1e+308}')
@example(data=b'{"ridge": 1e+308}')
def test_config_files(tmp_path, capsys, monkeypatch, data):
    monkeypatch.chdir(tmp_path)  # relative paths in the config resolve here
    path = new_file(tmp_path, data)
    try:
        _load_config_file(str(path))
    except CliError:
        pass
    run_cli(capsys, "--config", path, "evaluate", "--archive", TOY)


# -- what the fuzz found, pinned -------------------------------------------------

def _toy_line(**fields) -> bytes:
    return (json.dumps({**TOY_RECORDS[0], **fields}) + "\n").encode("utf-8")


def _config(path):
    return _load_config_file(str(path))


def _no_request(endpoint, payload, headers):
    raise AssertionError("loading the embedding cache sent a request")


def _embedding_cache(path):
    """Load ``path`` as the --cache-dir file of a remote provider for model m."""
    path = path.rename(path.with_name("m.jsonl"))
    return RemoteEmbeddingProvider(endpoint="http://127.0.0.1:9", model="m",
                                   cache_dir=path.parent, transport=_no_request)


@pytest.mark.parametrize("loader, error, data, message", [
    (load_archive, ArchiveError, b"\xff\n", "not UTF-8 text: invalid start byte"),
    (load_archive, ArchiveError, _toy_line(enriched_outcome=True),
     "field 'enriched_outcome' must be a string (line 1)"),
    (load_archive, ArchiveError, _toy_line(effect_size=10**400),
     "field 'effect_size' must be finite (line 1)"),
    (read_vector_file, EmbeddingError, b'{"id": "a", "values": [1' + b"0" * 400 + b"]}\n",
     ":1: non-finite value"),
    (ScriptedStubChat.from_file, ChatError, b'{"prompt_hash": ["h"], "response": "r"}\n',
     ":1: prompt_hash and response must be strings"),
    (ScriptedStubChat.from_file, ChatError, b"\xc3", "not UTF-8 text: unexpected end of data"),
    (_config, CliError, b'{"max_rounds": null}', "'max_rounds' must be an integer"),
    (_config, CliError, b'{"seed": 1.0}', "'seed' must be an integer"),
    (_config, CliError, b'{"lambda_": NaN}', "'lambda_' must be a finite number"),
    (_config, CliError, b'{"ridge": 1' + b"0" * 400 + b"}", "'ridge' must be a finite number"),
    (_config, CliError, b'{"provider": 5}', "'provider' must be a string"),
    (_config, CliError, b'\xff{}', "not UTF-8 text: invalid start byte"),
    (load_archive, ArchiveError, f'{{"id": "a", "treatment": {DEEP}}}\n'.encode(),
     ":1: invalid JSON: nested too deeply"),
    (read_vector_file, EmbeddingError, f'{{"id": {DEEP}, "values": [1.0]}}\n'.encode(),
     ":1: invalid JSON: nested too deeply"),
    (ScriptedStubChat.from_file, ChatError, f'\n{{"prompt_hash": {DEEP}}}\n'.encode(),
     ":2: invalid JSON: nested too deeply"),
    (_config, CliError, f'{{"grid": {DEEP}}}'.encode(), ": invalid JSON: nested too deeply"),
    (load_archive, ArchiveError, b"[1]\n", ":1: expected a JSON object"),
    (read_vector_file, EmbeddingError, b"[1]\n", ":1: expected a JSON object"),
    (ScriptedStubChat.from_file, ChatError, b"[1]\n", ":1: expected a JSON object"),
    (_embedding_cache, EmbeddingError, b"{\n",
     "/m.jsonl:1: invalid JSON: Expecting property name enclosed in double quotes"),
    (_embedding_cache, EmbeddingError, b"\xff\n",
     "/m.jsonl:1: not UTF-8 text: invalid start byte"),
    (_config, CliError, b"[1]", ": expected a JSON object"),
])
def test_found_inputs_raise_the_loaders_error(tmp_path, loader, error, data, message):
    with pytest.raises(error) as err:
        loader(new_file(tmp_path, data))
    assert str(err.value).endswith(message)


@pytest.mark.parametrize("loader, error", [
    (load_archive, ArchiveError), (read_vector_file, EmbeddingError),
    (ScriptedStubChat.from_file, ChatError), (_embedding_cache, EmbeddingError),
])
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(blank=st.integers(0, 20_000), bad=st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80"]))
@example(blank=0, bad=b"\xff")
@example(blank=9000, bad=b"\xff")
def test_the_first_bad_line_wins(tmp_path, loader, error, blank, bad):
    """A bad JSON line, a blank line of any length, then a byte that is not
    UTF-8: the JSON line is reported, wherever a read of the file ends."""
    with pytest.raises(error) as err:
        loader(new_file(tmp_path, b"{\n" + b" " * blank + b"\n" + bad + b"\n"))
    assert str(err.value).startswith(str(tmp_path))
    assert str(err.value).endswith(
        ".jsonl:1: invalid JSON: Expecting property name enclosed in double quotes")


def test_config_number_types_accepted(tmp_path):
    doc = {"lambda_": 1, "ridge": 0.5, "seed": 3, "vectors": "v.jsonl"}
    assert _config(new_file(tmp_path, json.dumps(doc).encode())) == doc


# Warnings are errors here: a warning printed before the error line would
# break the one-line contract, and pytest would otherwise capture it.
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("values", [[9e307], [1e200, -2e200, 3e200], [1e154]])
def test_overflowing_features_exit_2(tmp_path, capsys, values):
    archive = new_file(tmp_path, "\n".join(VECTOR_ARCHIVE).encode("utf-8"))
    vectors = new_file(tmp_path, "".join(
        json.dumps({"id": i, "values": v}) + "\n"
        for i, v in zip(VECTOR_IDS, ([1.0] * len(values), [1.0] * len(values), values))
    ).encode("utf-8"))
    assert main(["evaluate", "--archive", str(archive), "--vectors", str(vectors)]) == 2
    assert capsys.readouterr().err == \
        "error: feature vectors too long: squared distances overflow\n"
