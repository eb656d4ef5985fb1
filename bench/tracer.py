"""Spans around the calls into each exatlas module, recorded from outside.

Every public function defined in an exatlas module is wrapped, and the wrapper
is bound under each name that refers to the function in every exatlas module,
so a call made through an imported name (``assess`` in ``exatlas.evaluator``,
``read_vector_file`` in ``exatlas.cli``) is timed like a direct one. The chat
providers' ``complete`` methods are wrapped on their classes. Spans stay in
memory as (name, start, end, parent, pass id) and are written out at the end.
The tracing overhead is the span count times a wrapper's measured cost.

The workloads run with --jobs 1, so one stack of open spans gives each span
its parent.
"""

from __future__ import annotations

import importlib
import inspect
import json
import pkgutil
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

_CHAT_CLASSES = ("ScriptedStubChat", "AuditingChat")


def _arg(args: tuple, kwargs: dict, pos: int, name: str) -> Any:
    return args[pos] if len(args) > pos else kwargs[name]


# Counters read at layer boundaries: name -> probe(tracer, args, kwargs, result).
def _probe_select(t: "Tracer", args, kwargs, result) -> None:
    rows = len(_arg(args, kwargs, 2, "pool"))
    t.counts["select_rows"] += rows
    t.counts["select_values"] += rows * len(_arg(args, kwargs, 1, "target_x"))


def _probe_solve(t: "Tracer", args, kwargs, result) -> None:
    t.counts["solve_candidates"] += len(_arg(args, kwargs, 1, "candidates"))
    t.counts["solve_fallbacks"] += result[1] != "optimal"


def _probe_assess(t: "Tracer", args, kwargs, result) -> None:
    t.counts["hypothetical_weighted"] += any(
        w > 0.0 and k.startswith("hypothetical:") for k, w in result.weights.items())


def _probe_file(key: str) -> Callable:
    def probe(t: "Tracer", args, kwargs, result) -> None:
        t.counts[key] += Path(_arg(args, kwargs, 0, "path")).stat().st_size / 1e6
    return probe


PROBES: dict[str, Callable] = {
    "composer.select_candidates": _probe_select,
    "composer.solve_weights": _probe_solve,
    "composer.assess": _probe_assess,
    "representation.embed_text":
        lambda t, a, k, r: t.texts.add(_arg(a, k, 1, "text")),
    "representation.read_vector_file": _probe_file("read_mb"),
    "representation.write_vector_file": _probe_file("write_mb"),
    "generators.parse_bridge_response":
        lambda t, a, k, r: t.counts.update(proposals=len(r)),
}


class Tracer:
    """Installs span-recording wrappers into the exatlas modules and removes them."""

    def __init__(self, pass_id: int = 0):
        self.pass_id = pass_id
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self.texts: set[str] = set()
        self._stack: list[int] = []
        self._undo: list[tuple[Any, str, Any]] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack = self.spans, self._stack
        probe = PROBES.get(name)

        def traced(*args, **kwargs):
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = perf_counter()
            if probe is not None:
                probe(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        import exatlas

        modules = [exatlas] + [importlib.import_module(f"exatlas.{m.name}")
                               for m in pkgutil.iter_modules(exatlas.__path__)]
        wrappers: dict[int, Callable] = {}
        for mod in modules:
            short = mod.__name__.rpartition(".")[2]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrappers[id(obj)] = self._wrap(f"{short}.{attr}", obj)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and inspect.isfunction(obj):
                    self._rebind(mod, attr, wrappers[id(obj)])
        gen = importlib.import_module("exatlas.generators")
        for cls_name in _CHAT_CLASSES:
            cls = getattr(gen, cls_name)
            self._rebind(cls, "complete", self._wrap(f"chat.{cls_name}", cls.complete))

    def _rebind(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"i": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "pass": self.pass_id}))
                fh.write("\n")

    def layer_times(self) -> tuple[dict[str, float], dict[str, float], dict[str, list[float]]]:
        """Total time, self time (total minus the child spans) and the list of
        durations, each by span name."""
        total: dict[str, float] = defaultdict(float)
        child: dict[int, float] = defaultdict(float)
        durations: dict[str, list[float]] = defaultdict(list)
        for name, start, end, parent in self.spans:
            dur = end - start
            total[name] += dur
            durations[name].append(dur)
            if parent >= 0:
                child[parent] += dur
        self_time: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            self_time[name] += (end - start) - child[i]
        return total, self_time, durations

    @staticmethod
    def span_cost(calls: int = 20000, rounds: int = 5) -> float:
        """Seconds a wrapper adds to one call: wrapped minus bare calls of a no-op,
        per call, the least over ``rounds``. Times the span count, this gives the
        tracing overhead, which a traced pass's wall time minus an untraced one's
        cannot resolve on a machine whose speed drifts by more than it."""
        def noop() -> None:
            return None

        scratch = Tracer()
        wrapped = scratch._wrap("calibration.noop", noop)
        best = float("inf")
        for _ in range(rounds):
            t0 = perf_counter()
            for _ in range(calls):
                noop()
            t1 = perf_counter()
            for _ in range(calls):
                wrapped()
            t2 = perf_counter()
            scratch.spans.clear()
            best = min(best, ((t2 - t1) - (t1 - t0)) / calls)
        return max(best, 0.0)

    def outer_chat(self) -> tuple[int, float]:
        """Chat spans not nested in another chat span: (calls, seconds)."""
        n, secs = 0, 0.0
        for name, start, end, parent in self.spans:
            if name.startswith("chat.") and not (
                    parent >= 0 and self.spans[parent][0].startswith("chat.")):
                n += 1
                secs += end - start
        return n, secs
