"""``read_vector_file`` against the standard-library reference reader.

The reader decodes with orjson and hands every line orjson rejects, and every
record whose id is not a string, to ``json.loads``. These tests hold it to
:func:`oracles.reference_read_vector_file`, which decodes every line with
``json.loads``: the same ids in the same order, bit-identical arrays, and the
same exception type and message. Generated examples are read from memory,
as binary lines like those ``read_vector_file`` reads, both as a vector
file, where an id may not repeat, and as the embedding cache, where its
last vector wins; the rest are files on disk. The reader puts the
vectors in one matrix, sized from a count of the file's lines; a file
whose lines outnumber that count is still read in full.
"""

from __future__ import annotations

import importlib.util
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import reference_parse_vector_lines, reference_read_vector_file

from exatlas import representation as representation_mod
from exatlas.composer import FeatureStore
from exatlas.representation import (EmbeddingError, _parse_vector_lines, read_vector_file,
                                    write_vector_file)

ROOT = Path(__file__).resolve().parents[1]


def outcome(reader, *args):
    """("ok", [(id, dtype, bytes)]) or ("error", type, message)."""
    try:
        vectors = reader(*args)
    except Exception as e:  # noqa: BLE001 - the type is part of the comparison
        return ("error", type(e), str(e))
    return ("ok", [(k, v.dtype.str, v.shape, v.tobytes()) for k, v in vectors.items()])


def new_file(directory: Path, data: bytes) -> Path:
    """A fresh file for each example: truncating one in place can wait on a
    flush of its old blocks."""
    fd, name = tempfile.mkstemp(suffix=".jsonl", dir=directory)
    with open(fd, "wb") as fh:
        fh.write(data)
    return Path(name)


def assert_same_as_reference(path):
    got = outcome(read_vector_file, path)
    want = outcome(reference_read_vector_file, path)
    assert got == want
    return got


def assert_same_as_reference_in_memory(data: bytes):
    """As a vector file and as the embedding cache, on a matrix of one row
    at first, which grows as the lines need."""
    path = Path("generated.jsonl")  # named in the messages only
    for repeats in (False, True):
        assert outcome(_parse_vector_lines, path, io.BytesIO(data), 1, repeats) == \
            outcome(reference_parse_vector_lines, path, io.BytesIO(data), repeats)


def test_planted_file(tmp_path):
    """The benchmark's paper-scale vector file (N=360, 2304 values a line)."""
    spec = importlib.util.spec_from_file_location("planted", ROOT / "bench" / "planted.py")
    planted = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("planted", planted)
    spec.loader.exec_module(planted)
    world = planted.planted_archive(seed=0, n=360, dim=768)
    path = tmp_path / "vectors.jsonl"
    planted.write_vectors(path, world.features)
    got = assert_same_as_reference(path)
    assert got[0] == "ok" and len(got[1]) == 360
    vectors = read_vector_file(path)
    for exp_id, vec in world.features.items():
        assert vectors[exp_id].tobytes() == vec.tobytes()


@pytest.mark.parametrize("values", [
    [5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308],
    [0.0, -0.0, 1.7976931348623157e308, -1.7976931348623157e308],
    [0.1, 1 / 3, -2.5e-30, 1e22, 1e23, 9007199254740993.0],
])
def test_write_read_round_trip_bit_for_bit(tmp_path, values):
    vec = np.array(values)
    path = tmp_path / "v.jsonl"
    write_vector_file(path, {"a": vec, "b": vec[::-1]})
    got = read_vector_file(path)
    assert got["a"].tobytes() == vec.tobytes()
    assert got["b"].tobytes() == vec[::-1].tobytes()
    assert_same_as_reference(path)


@pytest.mark.parametrize("line", [
    '{"id": 12345678901234567890123, "values": [1.0]}',
    '{"id": -0, "values": [1.0]}',
    '{"id": [18446744073709551616, 1.5], "values": [1.0]}',
    '{"id": "a", "values": [12345678901234567890123, -0]}',
    '{"id": "a", "values": [1' + "0" * 400 + "]}",
    '{"id": "a", "values": [1e400]}',
    '{"id": "a", "values": [NaN]}',
    '{"id": "\\ud800", "values": [1.0]}',
    '{"id": "a", "id": "b", "values": [1.0], "values": [2.0]}',
    '\ufeff{"id": "a", "values": [1.0]}',
    '{"id": "a", "values": [1.0]} x',
    '{"id": "a", "values": [1.0]',
])
def test_edge_lines(tmp_path, line):
    path = tmp_path / "v.jsonl"
    path.write_text(line + "\n", encoding="utf-8")
    assert_same_as_reference(path)


A = b'{"id": "a", "values": [1.0, 2.0]}'
B = b'{"id": "b", "values": [3.0, 4.0]}'


@pytest.mark.parametrize("data, ids", [
    (b"", []),
    (b"\n \n\t\n", []),
    (b"\n" + A + b"\n\n\n" + B + b"\n\n", ["a", "b"]),
    (A + b"\n" + B, ["a", "b"]),
    (A + b"\r\n" + B + b"\r\n", ["a", "b"]),
    (A + b"\r" + B + b"\r", (1, "invalid JSON: Extra data")),  # a lone \r ends no line
    (A + b"\n" + B + b"\n" + b'{"id": "a", "values": [5.0, 6.0]}\n',
     (3, "duplicate id 'a' (first on line 1)")),
])
def test_whole_files(tmp_path, data, ids):
    """Blank lines, a missing or ``\\r\\n`` line ending and an empty file leave
    no stray rows: a store over the vectors in file order is their matrix,
    with one row a vector. Lines end at ``\\n`` only. An id on a second line
    is an error, as in an archive; ``ids`` is then the error's line and
    reason."""
    path = new_file(tmp_path, data)
    got = assert_same_as_reference(path)
    if isinstance(ids, tuple):
        assert got == ("error", EmbeddingError, f"{path}:{ids[0]}: {ids[1]}")
        return
    vectors = read_vector_file(path)
    assert list(vectors) == ids
    if ids:
        store = FeatureStore.from_features(vectors, ids)
        assert store.matrix.shape == (len(ids), 2)
        assert all(np.shares_memory(store.matrix[k], vectors[i]) for k, i in enumerate(ids))


def test_lines_added_after_the_count_are_read(tmp_path, monkeypatch):
    """A file that gains lines between the count of its lines and the parse
    is read in full."""
    path = tmp_path / "v.jsonl"
    path.write_bytes(A + b"\n")
    real = representation_mod._read_ranges

    def grow_then_read(p, fh, rows, starts):
        assert rows == 2 and starts == [0]
        with p.open("ab") as out:
            out.write(B + b"\n" + b'{"id": "c", "values": [5.0, 6.0]}\n')
        return real(p, fh, rows, starts)

    monkeypatch.setattr(representation_mod, "_read_ranges", grow_then_read)
    vectors = read_vector_file(path)
    assert {k: v.tolist() for k, v in vectors.items()} == \
        {"a": [1.0, 2.0], "b": [3.0, 4.0], "c": [5.0, 6.0]}
    monkeypatch.undo()
    assert_same_as_reference(path)


def test_big_integer_id_keeps_its_digits(tmp_path):
    path = tmp_path / "v.jsonl"
    path.write_text('{"id": 12345678901234567890123, "values": [1.0]}\n', encoding="utf-8")
    assert list(read_vector_file(path)) == ["12345678901234567890123"]


def test_invalid_utf8_is_an_embedding_error(tmp_path):
    path = tmp_path / "v.jsonl"
    path.write_bytes(b'{"id": "a", "values": [1.0]}\n{"id": "\xff", "values": [1.0]}\n')
    with pytest.raises(EmbeddingError, match="not UTF-8 text: invalid start byte$"):
        read_vector_file(path)
    assert_same_as_reference(path)


# Number tokens as they may appear in a file, including the ones orjson
# rejects or reads differently from json.loads.
_SPECIAL_NUMBERS = st.sampled_from([
    "NaN", "Infinity", "-Infinity", "1e400", "-1e400", "1e-400", "-0", "-0.0", "0",
    "18446744073709551615", "18446744073709551616", "-9223372036854775809",
    "1" + "0" * 400, "2.4703282292062328e-324", "1.7976931348623158e308",
    "true", "null", '"1.5"', "[1.0]",
])
_LONG_DECIMALS = st.builds(
    lambda sign, whole, frac, exp: f"{sign}{whole}.{frac}{exp}",
    st.sampled_from(["", "-"]),
    st.integers(0, 10**20).map(str),
    st.text("0123456789", min_size=17, max_size=40),
    st.sampled_from(["", "e-5", "E+300", "e-320", "e17"]),
)
_BIG_INTS = st.integers(-(10**30), 10**30).map(str)
_FLOATS = st.floats(allow_nan=False, allow_infinity=False).map(repr)
_NUMBER = st.one_of(_FLOATS, _FLOATS, _LONG_DECIMALS, _BIG_INTS, _SPECIAL_NUMBERS)

_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=8)
_ID = st.one_of(
    _TEXT.map(json.dumps),
    _TEXT.map(lambda t: json.dumps(t, ensure_ascii=False)),
    st.just('"\\ud800"'),
    st.sampled_from(['"a"', '"b"']),  # ids that repeat
    _BIG_INTS,
    _SPECIAL_NUMBERS,
)


@st.composite
def vector_line(draw, dim):
    values = draw(st.lists(_NUMBER, min_size=dim, max_size=dim))
    if draw(st.integers(0, 9)) == 0:
        values = values[:-1] or ["1.0", "2.0"]
    fields = [f'"id": {draw(_ID)}', f'"values": [{", ".join(values)}]']
    if draw(st.booleans()):
        fields.append(draw(st.sampled_from(['"id": "dup"', '"values": [1.0]', '"x": null'])))
    if draw(st.integers(0, 19)) == 0:
        fields.pop(draw(st.integers(0, 1)))
    return "{" + ", ".join(fields) + "}"


@st.composite
def vector_file(draw):
    dim = draw(st.integers(1, 4))
    lines = draw(st.lists(st.one_of(
        vector_line(dim), vector_line(dim), vector_line(dim),
        st.sampled_from(["", "   ", "\t", "[1.0]", "{", "null"]),
    ), max_size=6))
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    text = ending.join(lines) + draw(st.sampled_from(["", ending]))
    if draw(st.booleans()):
        text = "\ufeff" + text
    return text.encode("utf-8")


@settings(max_examples=600, deadline=None)
@given(data=vector_file())
def test_generated_files_match_reference(data):
    assert_same_as_reference_in_memory(data)


@settings(max_examples=400, deadline=None)
@given(values=st.lists(_NUMBER, min_size=1, max_size=8))
def test_generated_values_decode_to_the_same_bits(values):
    """One record a file, so most examples get as far as comparing arrays."""
    line = '{"id": "a", "values": [' + ", ".join(values) + "]}\n"
    assert_same_as_reference_in_memory(line.encode("utf-8"))
