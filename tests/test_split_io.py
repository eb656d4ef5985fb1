"""Vector files read and written in ranges across forked processes give the
one-process reader's vectors and errors and the ``json.dumps`` writer's
bytes, and leave no child behind.

``read_vector_file`` and ``write_vector_file`` split a file into one
contiguous range of lines per process, one range in one process. Each test
pins the process count through ``forks.processes`` and lets a range be as
short as one byte, so that small files split; results are held to
``oracles.reference_read_vector_file`` and
``oracles.reference_write_vector_lines``. A read raises an error in its
first range itself, and reads the whole file again as one range where a
later range fails or ranges disagree.
"""

from __future__ import annotations

import os
import signal

import numpy as np
import pytest
from test_vector_file import assert_same_as_reference as assert_read_as_reference
from test_vector_file import new_file
from test_vector_writer import BOUNDARY
from test_vector_writer import assert_same_as_reference as assert_written_as_reference

import exatlas.forks as forks_mod
from exatlas import representation as representation_mod
from exatlas.composer import FeatureStore
from exatlas.representation import EmbeddingError, read_vector_file, write_vector_file

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")

COUNTS = [1, 2, 3]


@pytest.fixture(autouse=True)
def no_child_left():
    """After every case, this process has no child, running or unreaped."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture(autouse=True)
def short_ranges(monkeypatch):
    monkeypatch.setattr(representation_mod, "SPLIT_BYTES", 1)


def processes(monkeypatch, count: int) -> list[int]:
    """Split in ``count`` processes (at most one per part); returns the list
    that grows by one per fork."""
    forks: list[int] = []
    fork = os.fork

    def counting():
        forks.append(1)
        return fork()

    monkeypatch.setattr(forks_mod, "processes", lambda parts: max(1, min(count, parts)))
    monkeypatch.setattr(os, "fork", counting)
    return forks


def range_reads(monkeypatch) -> list[list[int]]:
    """The list of the line numbers at which each ``_read_ranges`` call's
    ranges start: a read's first call tries the split, and each later one,
    from line 1 alone, reads the whole file again."""
    calls: list[list[int]] = []
    real = representation_mod._read_ranges

    def counting(path, fh, rows, starts):
        calls.append(starts_as_lines(path, starts))
        return real(path, fh, rows, starts)

    monkeypatch.setattr(representation_mod, "_read_ranges", counting)
    return calls


def starts_as_lines(path, starts: list[int]) -> list[int]:
    data = path.read_bytes()
    return [data[:s].count(b"\n") + 1 for s in starts]


def line(vec_id: str, values) -> bytes:
    return f'{{"id": "{vec_id}", "values": [{", ".join(map(str, values))}]}}\n'.encode()


def good_lines(n: int = 6, width: int = 3) -> list[bytes]:
    """``n`` lines of one length, so that a range of 2 or 3 starts where the
    lines divide evenly."""
    return [line(f"v{k}", [float(k + j) + 0.5 for j in range(width)]) for k in range(n)]


def range_starts(path, count: int) -> list[int]:
    """The line numbers at which the reader's ranges start."""
    with path.open("rb") as fh:
        return starts_as_lines(path, representation_mod._line_starts(
            fh, path.stat().st_size, count))


# Reading


@pytest.mark.parametrize("count", COUNTS)
@pytest.mark.parametrize("data", [
    b"".join(good_lines()),
    b"".join(good_lines())[:-1],  # a last line without a newline
    b"".join(good_lines(2)),
    b"".join(good_lines(1)),  # fewer lines than processes
    b"\n\n" + b"".join(good_lines(1)) + b"\n\n",
    b"\n \n\t\n",
    b"",
], ids=["six", "no-last-newline", "two", "one", "one-among-blanks", "blank", "empty"])
def test_read_equals_reference(tmp_path, monkeypatch, count, data):
    forks = processes(monkeypatch, count)
    assert assert_read_as_reference(new_file(tmp_path, data))[0] == "ok"
    assert len(forks) <= count - 1


@pytest.mark.parametrize("count", COUNTS)
def test_every_count_reads_through_ranges(tmp_path, monkeypatch, count):
    """One process is the split read with one range, and no child."""
    path = new_file(tmp_path, b"".join(good_lines()))
    forks, reads = processes(monkeypatch, count), range_reads(monkeypatch)
    assert assert_read_as_reference(path)[0] == "ok"
    assert reads == [range_starts(path, count)] and len(reads[0]) == count
    assert len(forks) == count - 1


@pytest.mark.parametrize("count", [2, 3])
def test_blank_lines_at_a_range_boundary(tmp_path, monkeypatch, count):
    """A line and a long run of blank lines per range, then one more line:
    each range after the first starts on a blank line."""
    lines = good_lines(count + 1)
    blanks = [b"\n" * 300, b" \t \n" * 75]
    data = b"".join(lines[k] + blanks[k % 2] for k in range(count)) + lines[count]
    path = new_file(tmp_path, data)
    rows = data.split(b"\n")
    assert all(not rows[s - 1].strip() for s in range_starts(path, count)[1:])
    forks, reads = processes(monkeypatch, count), range_reads(monkeypatch)
    assert assert_read_as_reference(path)[0] == "ok"
    assert len(forks) == count - 1 and len(reads) == 1


@pytest.mark.parametrize("count", COUNTS)
@pytest.mark.parametrize("where", [0, 3, 5])
def test_one_huge_line(tmp_path, monkeypatch, count, where):
    """A line of 100,000 values among short lines of one value."""
    lines = [line(f"v{k}", [float(k)] * (100_000 if k == where else 1)) for k in range(6)]
    path = new_file(tmp_path, b"".join(lines))
    processes(monkeypatch, count)
    got = assert_read_as_reference(path)
    assert got[0] == "error" and "dimension mismatch" in got[2]
    only = new_file(tmp_path, lines[where])
    assert assert_read_as_reference(only)[0] == "ok"


# A bad line of each kind, and the message's reason.
BAD_LINES = {
    "not-utf8": (b'{"id": "\xff", "values": [1.0, 2.0, 3.0]}\n', "not UTF-8 text"),
    "invalid-json": (b'{"id": "x", "values": [1.0, 2.0, 3.0]\n', "invalid JSON"),
    "not-an-object": (b"[1.0, 2.0, 3.0]\n", "expected a JSON object"),
    "no-id": (b'{"values": [1.0, 2.0, 3.0]}\n', "missing field 'id'"),
    "no-values": (b'{"id": "x"}\n', "missing field 'values'"),
    "not-numbers": (b'{"id": "x", "values": [1.0, [2.0], 3.0]}\n',
                    "values must be a list of numbers"),
    "non-finite": (b'{"id": "x", "values": [1.0, NaN, 3.0]}\n', "non-finite value"),
    "overflow": (b'{"id": "x", "values": [1.0, 1e400, 3.0]}\n', "non-finite value"),
    "empty": (b'{"id": "x", "values": []}\n', "values must not be empty"),
    "width": (b'{"id": "x", "values": [1.0, 2.0]}\n', "dimension mismatch"),
    "duplicate": (b'{"id": "v0", "values": [1.0, 2.0, 3.0]}\n', "duplicate id 'v0'"),
}


@pytest.mark.parametrize("count", COUNTS)
@pytest.mark.parametrize("row", [1, 5])  # in the first range; in the last, if split
@pytest.mark.parametrize("kind", sorted(BAD_LINES))
def test_bad_line_in_any_range(tmp_path, monkeypatch, count, row, kind):
    """A bad line in the first range is raised there, the file read once; one
    in a later range has the whole file read again, once."""
    bad, reason = BAD_LINES[kind]
    lines = good_lines()
    lines[row] = bad
    path = new_file(tmp_path, b"".join(lines))
    later = row + 1 >= [*range_starts(path, count), len(lines) + 1][1]  # past the first range
    assert later == (count > 1 and row == 5)
    processes(monkeypatch, count)
    reads = range_reads(monkeypatch)
    got = assert_read_as_reference(path)
    assert got[0] == "error" and got[2].startswith(f"{path}:{row + 1}: {reason}")
    assert reads[1:] == ([[1]] if later else [])


@pytest.mark.parametrize("count", [2, 3])
def test_duplicate_id_across_ranges(tmp_path, monkeypatch, count):
    lines = good_lines()
    lines[5] = lines[0]
    path = new_file(tmp_path, b"".join(lines))
    assert range_starts(path, count)[-1] <= 5
    processes(monkeypatch, count)
    reads = range_reads(monkeypatch)
    assert assert_read_as_reference(path)[2] == f"{path}:6: duplicate id 'v0' (first on line 1)"
    assert reads[1:] == [[1]]


@pytest.mark.parametrize("count", [2, 3])
def test_width_change_at_a_later_ranges_first_line(tmp_path, monkeypatch, count):
    """Every line from a later range's first on is wider, so each range
    reads on its own but the ranges disagree."""
    narrow, wide = good_lines(6, width=3), good_lines(6, width=4)
    path = new_file(tmp_path, b"".join(narrow[:3] + wide[3:]))
    first = range_starts(path, count)[-1]
    path = new_file(tmp_path, b"".join(narrow[:first - 1] + wide[first - 1:]))
    assert range_starts(path, count)[-1] == first
    processes(monkeypatch, count)
    reads = range_reads(monkeypatch)
    assert assert_read_as_reference(path)[2] == \
        f"{path}:{first}: dimension mismatch: expected 3, got 4"
    assert reads[1:] == [[1]]


@pytest.mark.parametrize("count", [2, 3])
def test_failed_fork_reads_in_one_process(tmp_path, monkeypatch, count):
    calls = []

    def no_fork():
        calls.append(1)
        raise OSError("Resource temporarily unavailable")

    monkeypatch.setattr(forks_mod, "processes", lambda parts: max(1, min(count, parts)))
    monkeypatch.setattr(os, "fork", no_fork)
    reads = range_reads(monkeypatch)
    assert assert_read_as_reference(new_file(tmp_path, b"".join(good_lines())))[0] == "ok"
    assert len(calls) == count - 1 and reads[1:] == [[1]]


def die_in_child(monkeypatch, name: str, after: int) -> None:
    """A child kills itself at its ``after``-th call of the module's ``name``."""
    parent, real, calls = os.getpid(), getattr(representation_mod, name), []

    def dying(*args, **kwargs):
        if os.getpid() != parent:
            calls.append(1)
            if len(calls) > after:
                os.kill(os.getpid(), signal.SIGKILL)
        return real(*args, **kwargs)

    monkeypatch.setattr(representation_mod, name, dying)


@pytest.mark.parametrize("count", [2, 3])
def test_killed_child_range_is_read_here(tmp_path, monkeypatch, count):
    """A child killed mid-range has the whole file read again here, once."""
    path = new_file(tmp_path, b"".join(good_lines(12)))
    forks, reads = processes(monkeypatch, count), range_reads(monkeypatch)
    die_in_child(monkeypatch, "_record_values", after=1)
    assert assert_read_as_reference(path)[0] == "ok"
    assert len(forks) == count - 1 and reads[1:] == [[1]]


def cut_short(monkeypatch) -> None:
    """Each child sends its value and half its payload's bytes, then dies."""
    real = forks_mod._child

    def child(work, fd):
        def half():
            value, payload = work()
            data = b"".join(bytes(memoryview(buffer)) for buffer in payload)

            def dying():
                yield data[:len(data) // 2]
                os.kill(os.getpid(), signal.SIGKILL)

            return value, dying()

        real(half, fd)

    monkeypatch.setattr(forks_mod, "_child", child)


@pytest.mark.parametrize("count", [2, 3])
def test_range_cut_short_is_read_here(tmp_path, monkeypatch, count):
    """Rows of 2,000 values, so that each child's half fills the pipe. A
    range cut short has the whole file read again here, once."""
    path = tmp_path / "v.jsonl"
    write_vector_file(path, features(12, width=2000))
    forks, reads = processes(monkeypatch, count), range_reads(monkeypatch)
    cut_short(monkeypatch)
    assert assert_read_as_reference(path)[0] == "ok"
    assert len(forks) == count - 1 and reads[1:] == [[1]]


def test_store_shares_the_split_matrix(tmp_path, monkeypatch):
    path = new_file(tmp_path, b"\n".join(good_lines(9)))
    forks = processes(monkeypatch, 2)
    vectors = read_vector_file(path)
    assert len(forks) == 1
    store = FeatureStore.from_features(vectors, list(vectors))
    assert all(np.shares_memory(store.matrix, vec) for vec in vectors.values())
    assert all(store.matrix[k].ctypes.data == vec.ctypes.data
               for k, vec in enumerate(vectors.values()))


def test_errors_from_a_split_read_are_embedding_errors(tmp_path, monkeypatch):
    lines = good_lines()
    lines[4] = BAD_LINES["not-utf8"][0]
    processes(monkeypatch, 2)
    with pytest.raises(EmbeddingError, match=":5: not UTF-8 text: invalid start byte$"):
        read_vector_file(new_file(tmp_path, b"".join(lines)))


# Writing


def features(n: int, width: int = 40, seed: int = 0) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((n, width)) * 10.0 ** rng.integers(-8, 20, size=(n, width))
    return {f"exp-{k}": row for k, row in enumerate(rows)}


@pytest.mark.parametrize("count", COUNTS)
@pytest.mark.parametrize("vectors", [
    features(7),
    features(2),  # fewer rows than processes, at 3
    features(1),
    {},
    {"huge": np.random.default_rng(1).standard_normal(200_000), **features(4)},
    {f"b{i}": np.array([v, -v, v]) for i, v in enumerate(BOUNDARY)},
    {"f32": np.arange(5, dtype=np.float32) / 3, "2d": np.arange(6.0).reshape(2, 3),
     "strided": np.arange(12.0)[::3], "é日本": np.array([1e-7, 1e17])},
], ids=["seven", "two", "one", "none", "huge", "boundary", "shapes"])
def test_write_equals_reference(tmp_path, monkeypatch, count, vectors):
    forks = processes(monkeypatch, count)
    assert assert_written_as_reference(tmp_path, vectors)[0] is None
    assert len(forks) == min(count, len(vectors) or 1) - 1


@pytest.mark.parametrize("count", [2, 3])
@pytest.mark.parametrize("row", [0, 1, 5])  # in the first range, in a later one
def test_write_error_in_any_range(tmp_path, monkeypatch, count, row):
    """A lone surrogate in an id raises the reference's error after the
    lines before it are written."""
    vectors = features(6)
    vectors = {("\ud800" if k == row else key): vec for k, (key, vec) in enumerate(vectors.items())}
    processes(monkeypatch, count)
    error, _ = assert_written_as_reference(tmp_path, vectors)
    assert error[0] is UnicodeEncodeError


@pytest.mark.parametrize("count", [2, 3])
def test_failed_fork_writes_in_one_process(tmp_path, monkeypatch, count):
    def no_fork():
        raise OSError("Resource temporarily unavailable")

    monkeypatch.setattr(forks_mod, "processes", lambda parts: max(1, min(count, parts)))
    monkeypatch.setattr(os, "fork", no_fork)
    assert assert_written_as_reference(tmp_path, features(7))[0] is None


@pytest.mark.parametrize("count", [2, 3])
def test_killed_child_range_is_written_here(tmp_path, monkeypatch, count):
    """Each child dies after formatting one of its lines."""
    parent, real = os.getpid(), representation_mod._vector_lines

    def dying(items):
        for k, text in enumerate(real(items)):
            if k == 1 and os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            yield text

    forks = processes(monkeypatch, count)
    monkeypatch.setattr(representation_mod, "_vector_lines", dying)
    assert assert_written_as_reference(tmp_path, features(9))[0] is None
    assert len(forks) == count - 1


@pytest.mark.parametrize("count", [2, 3])
def test_range_cut_short_is_written_here(tmp_path, monkeypatch, count):
    forks = processes(monkeypatch, count)
    cut_short(monkeypatch)
    assert assert_written_as_reference(tmp_path, features(12, width=2000))[0] is None
    assert len(forks) == count - 1


@pytest.mark.parametrize("count", [2, 3])
def test_write_then_read_bit_for_bit(tmp_path, monkeypatch, count):
    vectors = features(8)
    processes(monkeypatch, count)
    path = tmp_path / "v.jsonl"
    write_vector_file(path, vectors)
    got = read_vector_file(path)
    assert [(k, v.tobytes()) for k, v in got.items()] == \
        [(k, v.tobytes()) for k, v in vectors.items()]
