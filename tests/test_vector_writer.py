"""``write_vector_file`` and ``append_vector_file`` against the ``json.dumps``
reference writer.

The writer formats numbers with orjson and re-renders with ``repr``, chosen
by value, the tokens whose layout differs from ``float.__repr__``: decimal
exponents below -4 or from 16 up, NaN and the infinities. These tests hold it
to :func:`oracles.reference_write_vector_lines` byte for byte in both file
modes, with the same exception when a line cannot be written, and check that
every finite float64 comes back from ``read_vector_file`` bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from oracles import reference_write_vector_lines
from test_vector_file import new_file

from exatlas.representation import (
    DeterministicStubProvider,
    append_vector_file,
    build_feature,
    read_vector_file,
    write_vector_file,
)

WRITERS = {"w": write_vector_file, "a": append_vector_file}
FIRST_LINE = b'{"id": "kept", "values": [1.0]}\n'  # what append mode appends to

# Both sides of each switch between positional and exponent layout, the
# extremes of the float64 range, and the specials.
BOUNDARY = [
    np.nextafter(1e-4, 0), 1e-4, np.nextafter(1e-4, 1), np.nextafter(1e-5, 0), 1e-5,
    np.nextafter(1e16, 0), 1e16, np.nextafter(1e16, np.inf), 1e15, 1e17,
    0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
    float("nan"), float("inf"), float("-inf"), 1.0, 123456789.0, 279983480.0000767,
]
BOUNDARY = [float(v) for v in BOUNDARY] + [-float(v) for v in BOUNDARY]

SETTINGS = settings(max_examples=300, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])


def from_bits(bits) -> np.ndarray:
    return np.array(bits, dtype=np.uint64).view(np.float64)


def as_float32(values) -> np.ndarray:
    with np.errstate(over="ignore"):
        return np.array(values, dtype=np.float32)


def outcome(write, path, vectors):
    """(exception type and message or None, the file's bytes afterwards)."""
    try:
        write(path, vectors)
        error = None
    except Exception as e:  # noqa: BLE001 - the type is part of the comparison
        error = (type(e), str(e))
    return error, path.read_bytes()


def assert_same_as_reference(directory, vectors, mode="w"):
    def reference(path, vectors):
        with path.open(mode, encoding="utf-8") as fh:
            reference_write_vector_lines(fh, vectors)

    got = outcome(WRITERS[mode], new_file(directory, FIRST_LINE), vectors)
    want = outcome(reference, new_file(directory, FIRST_LINE), vectors)
    assert got == want
    return got


FLOAT = st.one_of(st.integers(0, 2**64 - 1).map(lambda b: float(from_bits(b))),
                  st.floats(), st.sampled_from(BOUNDARY))
VECTOR = st.lists(FLOAT, max_size=12)
VALUES = st.one_of(
    VECTOR.map(np.array),
    VECTOR,  # a plain list
    st.lists(st.integers(), max_size=4),  # beyond the float range: OverflowError
    VECTOR.filter(lambda v: len(v) % 2 == 0).map(lambda v: np.array(v).reshape(2, -1)),
    VECTOR.map(as_float32),
)
VEC_ID = st.text() | st.sampled_from(
    ['"', "\\", '"\\"', "\x00\x1f\x7f", "a\nb\tc\rd", "  ", "é日本\U0001F600"])


@SETTINGS
@given(vectors=st.dictionaries(VEC_ID, VALUES, max_size=4), mode=st.sampled_from("wa"))
@example(vectors={"empty": np.array([]), "one": np.array([1e-7]), "int": [3, -4]}, mode="a")
def test_generated_vectors_match_reference(tmp_path, vectors, mode):
    assert_same_as_reference(tmp_path, vectors, mode)


@pytest.mark.parametrize("mode", ["w", "a"])
def test_boundary_values(tmp_path, mode):
    vectors = {f"v{i}": np.array([value]) for i, value in enumerate(BOUNDARY)}
    vectors["all"] = np.array(BOUNDARY)
    assert assert_same_as_reference(tmp_path, vectors, mode)[0] is None


def test_every_exponent(tmp_path):
    """Each of the 2048 exponent fields with the smallest, a middle and the
    largest mantissa, both signs: every layout a float64 can take."""
    exponents = np.arange(2048, dtype=np.uint64) << np.uint64(52)
    mantissas = np.array([0, 1, 0x8000000000000, 0xFFFFFFFFFFFFF], dtype=np.uint64)
    bits = (exponents[:, None] | mantissas[None, :]).ravel()
    values = from_bits(np.concatenate([bits, bits | np.uint64(1 << 63)]))
    assert assert_same_as_reference(tmp_path, {"all": values})[0] is None


def test_random_values(tmp_path):
    """Random bit patterns (every exponent, NaNs among them) and normals
    scaled across the positional range and past both of its ends."""
    rng = np.random.default_rng(0)
    bits = rng.integers(0, 2**64 - 1, size=50_000, dtype=np.uint64, endpoint=True)
    scaled = rng.standard_normal(50_000) * 10.0 ** rng.integers(-25, 25, size=50_000)
    vectors = {"bits": from_bits(bits), "scaled": scaled}
    assert assert_same_as_reference(tmp_path, vectors)[0] is None


def test_stub_features(tmp_path):
    """What ``embed`` writes: [t, o, t*o] of unit vectors at d=768, whose
    products fall below 1e-4 often enough to exercise the re-rendering."""
    stub = DeterministicStubProvider(768, seed=0)
    features = {f"exp-{i}": build_feature(stub.embed(f"t{i}"), stub.embed(f"o{i}"))
                for i in range(20)}
    assert np.mean(np.abs(np.concatenate(list(features.values()))) < 1e-4) > 0.01
    assert assert_same_as_reference(tmp_path, features)[0] is None


@pytest.mark.parametrize("mode", ["w", "a"])
@pytest.mark.parametrize("bad_id", ["\ud800", "a\udfffb", "\udc80\udc81"])
def test_lone_surrogate_id_raises_like_reference(tmp_path, mode, bad_id):
    vectors = {"good": np.array([1e-5, 2.0]), bad_id: np.array([1.0]), "after": [3.0]}
    error, _ = assert_same_as_reference(tmp_path, vectors, mode)
    assert error[0] is UnicodeEncodeError


@SETTINGS
@given(bits=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=16))
def test_finite_values_round_trip_bit_for_bit(tmp_path, bits):
    values = from_bits(bits)
    values = values[np.isfinite(values)]
    path = new_file(tmp_path, b"")
    write_vector_file(path, {"a": values})
    assert read_vector_file(path)["a"].tobytes() == values.tobytes()
