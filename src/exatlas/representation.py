"""Embedding providers and the concatenate-plus-interaction feature layout.

A feature vector for an experiment is ``[t, o, t * o]`` where ``t`` and ``o``
are the embeddings of the (enriched, when available) treatment and outcome
texts and ``*`` is elementwise multiplication. Embeddings are used exactly as
the provider returns them; no extra normalization is applied here.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import logging
import os
import shutil
import threading
import time
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator, Mapping, Protocol, Sequence

import numpy as np

from . import forks
from .archive import Archive, jsonl_records
from .composer import Features
from .remote import post_json, requests_transport

ENV_EMBED_KEY = "EXATLAS_EMBED_KEY"
DEFAULT_REMOTE_MODEL = "sentence-transformers/all-mpnet-base-v2"
DEFAULT_REMOTE_DIMENSION = 768
_BLOCK = 1 << 20  # vector files are read 1 MB at a time: their lines outgrow 8 KB buffers

logger = logging.getLogger(__name__)


class EmbeddingError(Exception):
    """Base class for embedding failures. ``text`` is the text a failure is
    about, where known; for a failed remote request, its batch's first."""

    def __init__(self, message: str, text: str | None = None):
        super().__init__(message)
        self.text = text


class EmbeddingTransportError(EmbeddingError):
    """Remote request failed after retries; retryable at the call site."""


class EmbeddingProvider(Protocol):
    dimension: int

    def embed_many(self, texts: Sequence[str]) -> list[np.ndarray]: ...


def text_key(text: str) -> str:
    """Stable id for a text: hex SHA-256 of its UTF-8 bytes."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class DeterministicStubProvider:
    """Seeded pseudo-random unit-norm embeddings, stable across platforms.

    The vector for a text is drawn by seeding numpy's PCG64 generator with
    SHA-256(f"{seed}:{text}") and normalizing a standard-normal draw, so the
    same (seed, dimension, text) always yields the same vector.
    """

    def __init__(self, dimension: int = 32, seed: int = 0):
        if dimension < 1:
            raise ValueError("dimension must be positive")
        self.dimension = int(dimension)
        self.seed = int(seed)

    def embed(self, text: str) -> np.ndarray:
        digest = hashlib.sha256(f"{self.seed}:{text}".encode("utf-8")).digest()
        rng = np.random.default_rng(int.from_bytes(digest, "big"))
        v = rng.standard_normal(self.dimension)
        return v / np.linalg.norm(v)

    def embed_many(self, texts: Sequence[str]) -> list[np.ndarray]:
        return [self.embed(text) for text in texts]


class VectorFileProvider:
    """Serves embeddings stored in a vector file, looked up by text.

    Lookup tries the verbatim text first, then its :func:`text_key` hash, so
    files may key vectors either way. Vectors are returned verbatim.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.vectors = read_vector_file(self.path)
        if not self.vectors:
            raise EmbeddingError(f"vector file {self.path} is empty")
        self.dimension = self.vectors.matrix.shape[1]

    def embed_many(self, texts: Sequence[str]) -> list[np.ndarray]:
        out = []
        for text in texts:
            vec = self.vectors.get(text)
            if vec is None and (vec := self.vectors.get(text_key(text))) is None:
                raise EmbeddingError(f"no stored vector for id {text_key(text)!r}", text)
            out.append(vec)
        return out


class RemoteEmbeddingProvider:
    """HTTP embedding client with batching, retries, and a write-through cache.

    The wire contract is ``POST endpoint`` with ``{"model": ..., "input":
    [texts]}`` returning ``{"data": [{"embedding": [...]}, ...]}`` in input
    order. The API key is read from ``EXATLAS_EMBED_KEY`` unless given.
    Responses are cached in memory by (model, text) and, when ``cache_dir``
    is set, appended to ``<cache_dir>/<model-slug>.jsonl`` so reruns make no
    remote calls. That file is read one line at a time, each ending at a
    newline byte; an unterminated last line, left by a write that was cut
    short, is dropped with a warning and cut off the file before the next
    append. Two processes that share ``cache_dir`` may each append the same
    text's vector, so a key may recur in that file: the cache keeps the
    vector of its last line. All cache access is lock-synchronized.
    """

    def __init__(
        self,
        endpoint: str,
        model: str = DEFAULT_REMOTE_MODEL,
        dimension: int = DEFAULT_REMOTE_DIMENSION,
        api_key: str | None = None,
        batch_size: int = 32,
        max_retries: int = 3,
        cache_dir: str | Path | None = None,
        transport: Callable[[str, dict, dict], dict] | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        if dimension < 1:
            raise ValueError("dimension must be positive")
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        if max_retries < 0:
            raise ValueError("max_retries must not be negative")
        self.endpoint = endpoint
        self.model = model
        self.dimension = int(dimension)
        self.api_key = api_key if api_key is not None else os.environ.get(ENV_EMBED_KEY)
        self.batch_size = int(batch_size)
        self.max_retries = int(max_retries)
        self._transport = transport or requests_transport(
            EmbeddingTransportError, "embedding", timeout=60)
        self._sleep = sleep
        self._lock = threading.Lock()
        self._cache: dict[str, np.ndarray] = {}
        self._cache_path: Path | None = None
        self._torn_tail: int | None = None  # where an unterminated last line starts
        if cache_dir is not None:
            slug = "".join(c if c.isalnum() or c in "-_." else "_" for c in model)
            self._cache_path = Path(cache_dir) / f"{slug}.jsonl"
            if self._cache_path.exists():
                self._load_cache()

    def _load_cache(self) -> None:
        path = self._cache_path
        with path.open("rb", buffering=_BLOCK) as fh:
            rows = _newlines(fh)
            size = fh.tell()
            fh.seek(0)
            self._cache.update(
                _parse_vector_lines(path, itertools.islice(fh, rows), rows, repeats=True))
            if fh.tell() < size:  # the lines read stop at the last newline
                logger.warning("%s: dropping an unterminated last line of %d bytes",
                               path, size - fh.tell())
                self._torn_tail = fh.tell()

    def embed_many(self, texts: Sequence[str]) -> list[np.ndarray]:
        keys = [text_key(t) for t in texts]
        with self._lock:
            missing = [t for t, k in zip(texts, keys) if k not in self._cache]
        missing = list(dict.fromkeys(missing))  # dedupe, keep order
        for start in range(0, len(missing), self.batch_size):
            batch = missing[start:start + self.batch_size]
            try:
                vectors = self._request(batch)
            except EmbeddingError as e:
                e.text = batch[0]
                raise
            with self._lock:
                for t, v in zip(batch, vectors):
                    self._cache[text_key(t)] = v
                if self._cache_path is not None:
                    if self._torn_tail is not None:
                        with self._cache_path.open("r+b") as fh:
                            fh.truncate(self._torn_tail)
                        self._torn_tail = None
                    append_vector_file(self._cache_path,
                                       {text_key(t): v for t, v in zip(batch, vectors)})
        with self._lock:
            return [self._cache[k] for k in keys]

    def _request(self, batch: list[str]) -> list[np.ndarray]:
        doc = post_json(self._transport, self.endpoint,
                        {"model": self.model, "input": list(batch)},
                        self.api_key, error=EmbeddingTransportError,
                        retries=self.max_retries, sleep=self._sleep)
        where = (f"malformed embedding response for the batch of {len(batch)} "
                 f"starting with {batch[0][:40]!r}")
        data = doc.get("data") if isinstance(doc, dict) else None
        if not isinstance(data, list) or len(data) != len(batch):
            raise EmbeddingError(f"{where}: expected an object whose data lists "
                                 f"{len(batch)} items")
        out = []
        for i, item in enumerate(data):
            if not (isinstance(item, dict) and "embedding" in item):
                raise EmbeddingError(f"{where}: item {i} is not an object with an embedding")
            try:
                vec = np.asarray(item["embedding"], dtype=float)
                if vec.ndim != 1:
                    raise ValueError
            except (TypeError, ValueError, OverflowError):
                raise EmbeddingError(
                    f"{where}: item {i}: embedding must be a list of numbers") from None
            if vec.shape != (self.dimension,):
                raise EmbeddingError(f"{where}: item {i}: dimension mismatch: "
                                     f"expected {self.dimension}, got {vec.size}")
            if not np.all(np.isfinite(vec)):
                raise EmbeddingError(f"{where}: item {i}: non-finite value")
            out.append(vec)
        return out


def embed_texts(provider: EmbeddingProvider, texts: Sequence[str]) -> list[np.ndarray]:
    """Embed ``texts`` in one ``embed_many`` call, checking that no text is
    empty and that one finite vector of the provider's dimension comes back
    per text. An error's ``text`` is the text it is about, where known."""
    for text in texts:
        if not text or not text.strip():
            raise EmbeddingError("cannot embed empty text", text)
    raw = provider.embed_many(texts)
    if len(raw) != len(texts):
        raise EmbeddingError(f"expected {len(texts)} vectors, got {len(raw)}")
    vectors = []
    for text, vec in zip(texts, raw):
        vec = np.asarray(vec, dtype=float)
        if vec.ndim != 1 or vec.shape[0] != provider.dimension:
            raise EmbeddingError(f"dimension mismatch: expected {provider.dimension}, "
                                 f"got {vec.size}", text)
        if not np.all(np.isfinite(vec)):
            raise EmbeddingError("provider returned non-finite embedding values", text)
        vectors.append(vec)
    return vectors


def build_feature(t: np.ndarray, o: np.ndarray) -> np.ndarray:
    """Assemble the 3d feature vector [t, o, t*o] from equal-length embeddings."""
    t = np.asarray(t, dtype=float)
    o = np.asarray(o, dtype=float)
    if t.ndim != 1 or o.ndim != 1 or t.shape[0] != o.shape[0]:
        raise EmbeddingError(f"dimension mismatch: expected {t.size}, got {o.size}")
    return np.concatenate([t, o, t * o])


def embedding_texts(exp) -> tuple[str, str, bool]:
    """Pick the texts to embed for an experiment: enriched first, raw fallback.
    The flag is True only when both texts are enriched: a partly enriched
    record still takes the enriched text it has, but is flagged False."""
    t = exp.enriched_treatment or exp.treatment_text
    o = exp.enriched_outcome or exp.outcome_text
    enriched = bool(exp.enriched_treatment) and bool(exp.enriched_outcome)
    return t, o, enriched


def feature_matrix(archive: Archive, provider: EmbeddingProvider) -> Features:
    """Build one feature vector per experiment, as the rows of one matrix in
    archive order, from the texts :func:`embedding_texts` picks.

    The distinct texts are embedded once each, in archive order, by one
    :func:`embed_texts` call, so a remote provider batches its requests. An
    error names the first experiment with the text it is about, else the
    first experiment.
    """
    picked = [(exp.id, *embedding_texts(exp)[:2]) for exp in archive]
    owner: dict[str, str] = {}
    for exp_id, t_text, o_text in picked:
        owner.setdefault(t_text, exp_id)
        owner.setdefault(o_text, exp_id)
    texts = list(owner)
    try:
        vectors = embed_texts(provider, texts)
    except EmbeddingError as e:
        exp_id = owner[e.text if e.text in owner else texts[0]]
        raise EmbeddingError(f"experiment {exp_id!r}: {e}", e.text) from e
    by_text = dict(zip(texts, vectors))
    matrix = np.empty((len(picked), 3 * provider.dimension))
    for row, (_, t, o) in zip(matrix, picked):
        row[:] = build_feature(by_text[t], by_text[o])
    return Features(archive.ids(), matrix)


# A vector file is read or written in ranges of at least this many bytes of
# text, one range a process (:mod:`exatlas.forks`): forking and collecting a
# child costs about 2 ms, what parsing 0.5 MB of it does. Writing, a value is
# taken as about 20 bytes of text.
SPLIT_BYTES = 1 << 20
_VALUE_BYTES = 20


def read_vector_file(path: str | Path) -> Features:
    """Read a ``{id, values}``-per-line vector file, enforcing one dimension
    and one line per id, as :class:`Features` in the file's order. A count
    of the file's newlines sizes their matrix, then its lines are read by
    :func:`~exatlas.archive.jsonl_records`, in one contiguous range of lines
    per process (:func:`_read_ranges`), one range where the file is small or
    one CPU is usable, and again as one range where a later range fails or
    ranges disagree. A pipe is read once, into a matrix doubled as it fills.
    Every error is an :class:`EmbeddingError` naming the file and the line."""
    path = Path(path)
    with path.open("rb", buffering=_BLOCK) as fh:
        if not fh.seekable():
            return _parse_vector_lines(path, fh, 1)
        rows = 1 + _newlines(fh)  # at least the lines: one more than the newlines
        size = os.fstat(fh.fileno()).st_size
        parts = forks.processes(min(rows, size // SPLIT_BYTES))
        vectors = _read_ranges(path, fh, rows, _line_starts(fh, size, parts))
        return vectors if vectors is not None else _read_ranges(path, fh, rows, [0])


def _newlines(fh: BinaryIO) -> int:
    """The number of newlines in the binary file ``fh``, counted by numpy,
    about three times as fast as ``bytes.count``."""
    return sum(int(np.count_nonzero(np.frombuffer(block, np.uint8) == ord("\n")))
               for block in iter(lambda: fh.read(_BLOCK), b""))


def _line_starts(fh: BinaryIO, size: int, parts: int) -> list[int]:
    """0 and the start of the first line at or after each ``size * k //
    parts`` for 0 < k < ``parts`` in the binary file ``fh`` of ``size``
    bytes, those before the end of the file, without repeats."""
    starts = [0]
    for k in range(1, parts):
        fh.seek(size * k // parts - 1)
        fh.readline()  # to the end of the line that holds the byte before
        if starts[-1] < fh.tell() < size:
            starts.append(fh.tell())
    return starts


def _lines(fh: BinaryIO, start: int, end: int | None) -> Iterator[bytes]:
    """The binary lines of ``fh`` from offset ``start``, where a line
    starts, to the line start ``end``, or to the end of the file."""
    fh.seek(start)
    for line in fh:
        yield line
        start += len(line)
        if start == end:
            return


def _read_ranges(path: Path, fh: BinaryIO, rows: int, starts: list[int]) -> Features | None:
    """:func:`read_vector_file`'s vectors of ``fh``, the file ``path`` of at
    most ``rows`` lines, read in one range of lines from each of ``starts``
    to the next, the last to the end of the file. This process reads the
    first range into the matrix while a forked child reads each other range
    and sends its ids and raw rows, which are read straight into the
    matrix's next rows. An error in the first range, the file's first, is
    raised. None where a later range does not arrive whole (a line in it
    fails, its fork fails, or its child is killed or cut off) or ranges
    disagree (an id in two ranges, two widths, more than ``rows`` vectors):
    the caller then reads the file as one range, which gives every error
    message and line number."""
    ranges = list(zip(starts, [*starts[1:], None]))
    with forks.Children() as children:
        for start, end in ranges[1:]:
            children.fork(functools.partial(_range_rows, path, start, end, rows))
        ids, matrix = _parse_rows(path, _lines(fh, *ranges[0]), rows)

        def receive(head: tuple, pipe: BinaryIO) -> bool:
            """Read a later range's vectors into place; False where they disagree."""
            nonlocal matrix
            keys, width = head
            if not ids:
                matrix = np.empty((rows, width))
            if keys and (width != matrix.shape[1] or len(ids) + len(keys) > rows):
                return False
            pipe.readinto(matrix[len(ids):len(ids) + len(keys)])  # short only if the child died
            ids.extend(keys)
            return True

        if not all(children.collect(k, receive) for k in range(len(ranges) - 1)) \
                or len(set(ids)) < len(ids):
            return None
    return Features(ids, matrix[:len(ids)])


def _range_rows(path: Path, start: int, end: int | None,
                rows: int) -> tuple[tuple, tuple[np.ndarray, ...]]:
    """((ids, width), (their rows,)) of the vectors of ``path``'s lines from
    offset ``start`` to ``end``, which are at most ``rows``; a line that
    fails raises. The file is opened anew, so that no other process moves
    its offset."""
    with path.open("rb", buffering=_BLOCK) as fh:
        ids, matrix = _parse_rows(path, _lines(fh, start, end), rows)
    return (ids, matrix.shape[1]), (matrix[:len(ids)],) if ids else ()


def _parse_vector_lines(path: Path, lines: Iterable[bytes], rows: int,
                        repeats: bool = False) -> Features:
    """The vectors of ``lines``, binary lines of ``path``, read into one
    matrix of ``rows`` rows, doubled whenever the lines hold more. A repeated
    id is an error, or with ``repeats`` set replaces the earlier vector."""
    ids, matrix = _parse_rows(path, lines, rows, repeats)
    return Features(ids, matrix[:len(ids)])


def _parse_rows(path: Path, lines: Iterable[bytes], rows: int, repeats: bool = False,
                ) -> tuple[list[str], np.ndarray]:
    """:func:`_parse_vector_lines`' ids and a matrix whose first rows are theirs."""
    matrix = np.empty((0, 0))
    first: dict[str, tuple[int, int]] = {}  # id -> (row, line)
    for line_no, rec in jsonl_records(path, lines, EmbeddingError, _vector_record):
        vec = _record_values(path, line_no, rec)
        if not first:
            matrix = np.empty((max(rows, 1), vec.size))
        elif vec.size != matrix.shape[1]:
            raise EmbeddingError(f"{path}:{line_no}: dimension mismatch: "
                                 f"expected {matrix.shape[1]}, got {vec.size}")
        key = str(rec["id"])
        row, line = first.setdefault(key, (len(first), line_no))
        if line != line_no and not repeats:
            raise EmbeddingError(f"{path}:{line_no}: duplicate id {key!r} (first on line {line})")
        if row == len(matrix):
            matrix = np.concatenate((matrix, np.empty_like(matrix)))
        matrix[row] = vec
    return list(first), matrix


def _vector_record(raw: bytes) -> dict | None:
    """The record orjson reads from a vector line's bytes, or None where the
    standard library decides: on every line orjson rejects (not UTF-8, NaN,
    Infinity, 1e400, lone surrogates, bad syntax, blank) and every record
    whose id is not a string, since orjson reads integers beyond 64 bits as
    floats and str(id) would change."""
    import orjson

    try:
        rec = orjson.loads(raw)
    except orjson.JSONDecodeError:
        return None
    return rec if isinstance(rec, dict) and isinstance(rec.get("id"), str) else None


def _record_values(path: Path, line_no: int, rec: dict) -> np.ndarray:
    """The checked ``values`` of one decoded vector record."""
    missing = [k for k in ("id", "values") if k not in rec]
    if missing:
        raise EmbeddingError(f"{path}:{line_no}: missing field {missing[0]!r}")
    try:
        vec = np.asarray(rec["values"], dtype=float)
        if vec.ndim != 1:
            raise ValueError
    except (TypeError, ValueError):
        raise EmbeddingError(
            f"{path}:{line_no}: values must be a list of numbers") from None
    except OverflowError:  # an integer literal beyond the float range
        raise EmbeddingError(f"{path}:{line_no}: non-finite value") from None
    if not np.all(np.isfinite(vec)):
        raise EmbeddingError(f"{path}:{line_no}: non-finite value")
    if vec.size == 0:  # a feature of length 0 would compose anything
        raise EmbeddingError(f"{path}:{line_no}: values must not be empty")
    return vec


def write_vector_file(path: str | Path, vectors: Mapping[str, np.ndarray]) -> None:
    """Write ``vectors``, any mapping such as :class:`Features`, one line
    each, in order (:func:`_vector_lines`), in one contiguous range of them
    per process where they are many enough: each forked child formats its
    range and sends the text, which this process copies to the file after
    its own range, in order and in bounded chunks. A range that does not
    arrive whole is formatted here, so an error is raised where one process
    would raise it, after the lines before it are written."""
    path = Path(path)
    items = list(vectors.items())
    values = sum(vec.size for _, vec in items if isinstance(vec, np.ndarray))
    ranges = forks.split(items, forks.processes(
        min(len(items), values * _VALUE_BYTES // SPLIT_BYTES)))
    with path.open("wb") as fh, forks.Children() as children:
        for part in ranges[1:]:
            children.fork(lambda part=part: (None, list(_vector_lines(part))))
        fh.writelines(_vector_lines(ranges[0]))
        for k, part in enumerate(ranges[1:]):
            start = fh.tell()
            if children.collect(k, lambda _, pipe: shutil.copyfileobj(pipe, fh, _BLOCK)
                                or True) is None:
                fh.seek(start)
                fh.truncate()
                fh.writelines(_vector_lines(part))


def append_vector_file(path: str | Path, vectors: Mapping[str, np.ndarray]) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("ab") as fh:
        fh.writelines(_vector_lines(vectors.items()))


# json.dumps spells the non-finite floats its own way; orjson writes null.
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _vector_lines(items: Iterable[tuple[str, np.ndarray]]) -> Iterator[bytes]:
    """One UTF-8 line per (id, vector), byte for byte as ``json.dumps({"id":
    id, "values": values}, ensure_ascii=False)`` and a newline would be.

    orjson formats the numbers, from the vector as a C-contiguous float64
    array. Its shortest round-trip digits are those of ``float.__repr__``;
    only the layout differs. ``repr`` writes a decimal exponent below -4 or
    from 16 up in exponent form with a signed two-digit exponent (``1e-05``,
    ``1e+16``), where orjson writes ``0.00001`` and ``1e16``, and orjson
    writes NaN and infinities as ``null``. So the positions of those values,
    chosen by value and never by scanning the text, are re-rendered with
    ``repr``; every other token is orjson's.
    """
    import orjson

    for vec_id, vec in items:
        arr = np.asarray(vec, dtype=float).ravel()
        mag = np.abs(arr)
        redo = np.flatnonzero((arr != 0) & ~((mag >= 1e-4) & (mag < 1e16)))
        text = orjson.dumps(arr, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1]
        if redo.size:
            tokens = text.split(b",")
            for i, value in zip(redo.tolist(), arr[redo].tolist()):
                token = repr(value)
                tokens[i] = _JSON_NONFINITE.get(token, token).encode()
            text = b", ".join(tokens)
        else:
            text = text.replace(b",", b", ")
        head = f'{{"id": {json.dumps(vec_id, ensure_ascii=False)}, "values": ['
        yield head.encode("utf-8") + text + b"]}\n"
