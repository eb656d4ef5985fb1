"""A pass split across forked processes gives the serial pass's rows, errors
and memo, and leaves no child behind.

``composer._pipeline`` runs the first range of a pass's blocks in this
process and the others in forked children. Each test pins the process count
through ``forks.processes`` (but the one that checks it), on a store of
four blocks of 8 targets.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import exatlas
import exatlas.composer as composer_mod
import exatlas.forks as forks_mod
from exatlas.composer import ComposerConfig, ComposerError, FeatureStore, assess_rows, gate_rows

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")

BLOCK = 8
N = 30  # four blocks: 8, 8, 8 and 6 targets
CFG = ComposerConfig(max_candidates=6)


@pytest.fixture(autouse=True)
def no_child_left():
    """After every case, this process has no child, running or unreaped."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture(autouse=True)
def small_blocks(monkeypatch):
    monkeypatch.setattr(composer_mod, "ASSESS_BLOCK", BLOCK)


def features(n: int = N, seed: int = 3) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((n, 4)) @ rng.standard_normal((4, 24))
    rows += 0.1 * rng.standard_normal((n, 24))
    return {f"exp-{k:02d}": rows[k] for k in range(n)}


def new_store(n: int = N) -> FeatureStore:
    vectors = features(n)
    return FeatureStore.from_features(vectors, list(vectors))


EFFECTS = {f"exp-{k:02d}": float(k % 5) - 2.0 for k in range(N)}


def processes(monkeypatch, count: int) -> list[int]:
    """Run passes in ``count`` processes (at most one per block); returns the
    list that grows by one per fork."""
    forks: list[int] = []
    fork = os.fork

    def counting():
        forks.append(1)
        return fork()

    monkeypatch.setattr(forks_mod, "processes", lambda parts: min(count, parts))
    monkeypatch.setattr(os, "fork", counting)
    return forks


def comp_bytes(comp) -> str:
    return repr(comp.to_record())


def gate_bytes(gate) -> tuple:
    return (gate.cols.tobytes(), np.float64(gate.scale).tobytes(), gate.weights.tobytes(),
            gate.composable)


def memo_bytes(store: FeatureStore) -> dict:
    return {k: (w.tobytes(), status, lo, hi) for k, (w, status, lo, hi) in store.memo.items()}


def gate_passes(store: FeatureStore) -> tuple[list, dict]:
    """Two gate passes, the second on a store extended by three rows, so that
    it reads the first pass's memo, and the memo each left."""
    first = [gate_bytes(g) for g in gate_rows(store, CFG)]
    held = memo_bytes(store)
    extra = features(N + 3, seed=4)
    grown = store.extended({f"new-{k}": extra[f"exp-{k:02d}"] for k in range(3)})
    second = [gate_bytes(g) for g in gate_rows(grown, CFG)]
    return [first, second], {"first": held, "second": memo_bytes(grown)}


def serial(monkeypatch, run):
    """What ``run`` returns with every pass in this process."""
    with monkeypatch.context() as m:
        m.setattr(forks_mod, "processes", lambda parts: 1)
        return run()


@pytest.mark.parametrize("count, n", [(1, N), (2, N), (3, N), (2, 2 * BLOCK), (3, 3 * BLOCK)])
def test_split_equals_serial(monkeypatch, count, n):
    """Results, gates and the final memo at 1, 2 and 3 processes, and where
    each process gets one block."""
    def run():
        comps = [comp_bytes(c) for c in assess_rows(new_store(n), EFFECTS, CFG)]
        return comps, *gate_passes(new_store(n))

    want = serial(monkeypatch, run)
    forks = processes(monkeypatch, count)
    assert run() == want
    assert len(forks) == 3 * (count - 1)  # three passes


def failing_block(monkeypatch, row: int, error: BaseException) -> None:
    """``_select_block`` raises ``error`` for the block that holds ``row``."""
    select = composer_mod._select_block

    def select_or_fail(store, block, cfg):
        if row in store.targets[block].tolist():
            raise error
        return select(store, block, cfg)

    monkeypatch.setattr(composer_mod, "_select_block", select_or_fail)


def rows_until_error(rows) -> tuple[list, type, str]:
    got = []
    with pytest.raises(Exception) as err:
        for row in rows:
            got.append(row)
    return got, err.type, str(err.value)


@pytest.mark.parametrize("row", [20, 25])  # in the child's first block, in its last
def test_child_error_after_the_parents_rows(monkeypatch, row):
    def run():
        failing_block(monkeypatch, row, ComposerError("need at least one candidate"))
        got, kind, message = rows_until_error(assess_rows(new_store(), EFFECTS, CFG))
        return [comp_bytes(c) for c in got], kind, message

    want = serial(monkeypatch, run)
    forks = processes(monkeypatch, 2)
    assert run() == want
    assert want[1:] == (ComposerError, "need at least one candidate")
    assert len(want[0]) == row // BLOCK * BLOCK and len(forks) == 1


def test_parent_error_kills_the_child(monkeypatch):
    """The child's range would take a minute; the parent's range fails at
    once, and the pass ends with the child killed and reaped."""
    parent = os.getpid()
    select = composer_mod._select_block

    def select_slowly_in_child(store, block, cfg):
        if os.getpid() != parent:
            time.sleep(60)
        if store.targets[block][0] == 0:
            raise ComposerError("candidate pool is empty")
        return select(store, block, cfg)

    forks = processes(monkeypatch, 2)
    monkeypatch.setattr(composer_mod, "_select_block", select_slowly_in_child)
    start = time.monotonic()
    with pytest.raises(ComposerError, match="^candidate pool is empty$"):
        list(gate_rows(new_store(), CFG))
    assert time.monotonic() - start < 30 and len(forks) == 1


def test_killed_child_range_runs_in_parent(monkeypatch):
    parent = os.getpid()
    select = composer_mod._select_block

    def die_in_child(store, block, cfg):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return select(store, block, cfg)

    def run():
        comps = [comp_bytes(c) for c in assess_rows(new_store(), EFFECTS, CFG)]
        return comps, *gate_passes(new_store())

    want = serial(monkeypatch, run)
    forks = processes(monkeypatch, 3)
    monkeypatch.setattr(composer_mod, "_select_block", die_in_child)
    assert run() == want
    assert len(forks) == 6


def test_failed_fork_runs_serially(monkeypatch):
    def run():
        return [comp_bytes(c) for c in assess_rows(new_store(), EFFECTS, CFG)]

    want = serial(monkeypatch, run)
    calls = []

    def no_fork():
        calls.append(1)
        raise OSError("Resource temporarily unavailable")

    monkeypatch.setattr(forks_mod, "processes", lambda parts: min(3, parts))
    monkeypatch.setattr(os, "fork", no_fork)
    assert run() == want
    assert len(calls) == 2


@pytest.mark.parametrize("count", [2, 3])
def test_closing_after_one_row_reaps_every_child(monkeypatch, count):
    forks = processes(monkeypatch, count)
    rows = gate_rows(new_store(), CFG)
    next(rows)
    rows.close()
    assert len(forks) == count - 1


@pytest.mark.skipif(not os.path.isdir("/proc/self/task")
                    or not hasattr(os, "sched_getaffinity"), reason="counts threads on Linux")
def test_a_live_thread_keeps_the_pass_serial(tmp_path):
    """In a fresh interpreter with one BLAS thread and three CPUs (as far as
    the composer can tell), a pass forks; with one more thread alive, it does
    not, and gives the same rows."""
    code = """
import os, sys, threading
import numpy as np
import exatlas.composer as composer_mod
from exatlas.composer import ComposerConfig, FeatureStore, gate_rows

composer_mod.ASSESS_BLOCK = 8
os.sched_getaffinity = lambda pid: {0, 1, 2}
forks, fork = [], os.fork
os.fork = lambda: forks.append(1) or fork()
rng = np.random.default_rng(3)
rows = rng.standard_normal((30, 24))
store = lambda: FeatureStore.from_features(dict(enumerate(rows)), list(range(30)))
gates = lambda: [(g.cols.tolist(), g.weights.tobytes()) for g in gate_rows(store(), ComposerConfig())]
alone = gates()
print(len(os.listdir("/proc/self/task")), len(forks))
stop = threading.Event()
thread = threading.Thread(target=stop.wait)
thread.start()
with_thread = gates()
print(len(os.listdir("/proc/self/task")), len(forks), with_thread == alone)
stop.set()
thread.join()
"""
    src = str(Path(exatlas.__file__).parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          encoding="utf-8", env=env, check=True, timeout=120)
    assert proc.stdout.split("\n") == ["1 2", "2 2 True", ""]
