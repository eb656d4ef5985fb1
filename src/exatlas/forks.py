"""Work split across forked processes, one contiguous range per usable CPU.

A caller splits its work into ranges (:func:`split`), forks a child for each
range but the first (:meth:`Children.fork`), runs the first itself and then
takes each child's range back in order (:meth:`Children.collect`). A child
sends a value, pickled, followed by raw bytes. The one failure signal is
``collect`` returning None: the fork failed, or the child raised, was killed
or was cut off. A pass or a write then runs that range in the parent, which
raises any error where one process would; a read reads the whole file again
in one process. Every child is killed and reaped when the ``with`` block of
its :class:`Children` ends, however it ends. A leave-one-out pass, and the
reading and writing of a vector file, all split this way.
"""

from __future__ import annotations

import os
import pickle
import signal
from typing import Any, BinaryIO, Callable, Iterable, NoReturn, Sequence, TypeVar

T = TypeVar("T")
_CHUNK = 1 << 20  # what the parent reads past a receiver's end at once

# What a child runs: its value and its payload, the buffers sent after it.
Work = Callable[[], "tuple[Any, Iterable[Any]]"]


def processes(parts: int) -> int:
    """How many processes work of ``parts`` parts runs in: one per CPU this
    process may run on, at most one per part. One where ``os.fork`` or the
    CPU affinity is missing, and where the process has another OS thread
    (or its threads cannot be counted): a child forked from a process with
    threads inherits locks those threads may hold, and BLAS threads would
    compete with the children for the CPUs."""
    if parts < 2 or not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    try:
        if len(os.listdir("/proc/self/task")) != 1:
            return 1
    except OSError:
        return 1
    return min(len(os.sched_getaffinity(0)), parts)


def split(items: Sequence[T], count: int) -> list[Sequence[T]]:
    """``items`` in ``count`` contiguous ranges, in order, whose lengths
    differ by one at most."""
    bounds = [len(items) * k // count for k in range(count + 1)]
    return [items[a:b] for a, b in zip(bounds, bounds[1:])]


class Children:
    """Forked children, numbered in the order they were forked. As a context
    manager, it kills and reaps every child not yet collected on exit."""

    def __init__(self) -> None:
        self._children: list[tuple[int, int] | None] = []  # (pid, read end)

    def __enter__(self) -> "Children":
        return self

    def __exit__(self, *exc: object) -> None:
        for child in self._children:
            if child is not None:
                os.close(child[1])
                _kill(child[0])
        self._children.clear()

    def fork(self, work: Work) -> None:
        """Fork the next child, which runs ``work`` and sends what it
        returns through a pipe: the value, pickled, then the payload's
        buffers. It shares this process's memory through fork, without a
        copy, and exits 0 only once all of it is sent; where the pipe or the
        fork fails, there is no child to collect."""
        self._children.append(_fork(work))

    def collect(self, k: int, receive: Callable[[Any, BinaryIO], T] = lambda value, _: value,
                ) -> T | None:
        """``receive(value, pipe)`` for child ``k``, with ``pipe`` at the
        start of the payload, once the child has exited 0; else None, the
        one sign of a failed range (no fork, or a child that raised, was
        killed or was cut off). ``receive`` returns anything but None,
        and must take a payload cut short without raising: what the parent
        leaves unread is read to the end of the pipe, and only the exit
        status tells a child that sent everything from one that died. The
        child is reaped, and its pipe closed, however this ends; it is
        killed first where ``receive`` raises."""
        child, self._children[k] = self._children[k], None
        if child is None:
            return None
        pid, fd = child
        try:
            with os.fdopen(fd, "rb") as pipe:
                size = pipe.read(8)
                head = pipe.read(int.from_bytes(size, "little"))
                # Only a whole value, from a child of this process, is unpickled.
                whole = len(size) == 8 and len(head) == int.from_bytes(size, "little")
                got = receive(pickle.loads(head), pipe) if whole else None
                while pipe.read(_CHUNK):
                    pass
            _, status = os.waitpid(pid, 0)
        except BaseException:
            _kill(pid)
            raise
        return got if os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0 else None


def _fork(work: Work) -> tuple[int, int] | None:
    try:
        r, w = os.pipe()
    except OSError:
        return None
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        return None
    if pid == 0:
        os.close(r)
        _child(work, w)
    os.close(w)
    return pid, r


def _child(work: Work, fd: int) -> NoReturn:
    """Run ``work`` and send its value and payload to ``fd``. The child ends
    only through ``os._exit``: nothing of the parent's (buffers, ``atexit``
    hooks, ``finally`` blocks up its stack) runs in it. It exits 0 only once
    all of it is written."""
    code = 1
    try:
        value, payload = work()
        head = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        with os.fdopen(fd, "wb") as pipe:
            pipe.write(len(head).to_bytes(8, "little"))
            pipe.write(head)
            pipe.writelines(payload)
        code = 0
    finally:
        os._exit(code)


def _kill(pid: int) -> None:
    """Kill and reap child ``pid``, which is not yet reaped (so ``pid`` is
    still its own, if only as a zombie)."""
    os.kill(pid, signal.SIGKILL)
    os.waitpid(pid, 0)
