"""In-memory span tracer for the traced benchmark run.

Every public function (and public classmethod) of the ``truncsym`` package
is wrapped in each module namespace that binds it, so calls through
``from .x import f`` aliases are seen as well as calls through ``x.f``.
Each call records one span: the wrapped function's name, its start and end
on ``time.monotonic`` (CLOCK_MONOTONIC on Linux, so comparable with stamps
taken in other processes), and the span that was open when it started.
Spans live in flat ``array`` buffers while the program runs and are saved
with numpy once it has finished.

A generator is timed across its whole iteration: its span starts at the
first ``next`` and ends when it is exhausted or closed.  Between resumes
it is not the open span, so calls its consumer makes in between are not
its children; its busy time (the time spent inside its resumes) is stored
separately and is what self time and the parent's child time use.

Self time is a span's busy time minus the busy time of its direct children
(single-threaded, so children never overlap).
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array
from collections import Counter


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.gen_index = array("q")
        self.gen_busy = array("d")
        self.stack: list[int] = [-1]
        self.counters: Counter = Counter()

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn, hook=None):
        """Return a traced stand-in for ``fn``.

        ``hook(args, kwargs, result, counters)`` runs after a call returns,
        outside its span, to add work counts derived from the call.
        """
        nid = self._name_id(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack, counters, clock = self.stack, self.counters, time.monotonic

        if inspect.isgeneratorfunction(fn):
            gen_index, gen_busy = self.gen_index, self.gen_busy

            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                gen = fn(*args, **kwargs)
                idx = -1
                busy = 0.0
                try:
                    while True:
                        t0 = clock()
                        if idx < 0:
                            idx = len(starts)
                            names.append(nid)
                            parents.append(stack[-1])
                            starts.append(t0)
                            ends.append(t0)
                        stack.append(idx)
                        try:
                            item = next(gen)
                        except StopIteration:
                            return
                        finally:
                            stack.pop()
                            busy += clock() - t0
                        yield item
                finally:
                    gen.close()
                    if idx >= 0:
                        ends[idx] = clock()
                        gen_index.append(idx)
                        gen_busy.append(busy)

            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(args, kwargs, result, counters)
            return result

        return traced

    def save(self, path: str) -> None:
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name=np.frombuffer(self.name, dtype=np.uint16),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            gen_index=np.frombuffer(self.gen_index, dtype=np.int64),
            gen_busy=np.frombuffer(self.gen_busy, dtype=np.float64),
        )


def _arg(args, kwargs, pos: int, key: str):
    return args[pos] if len(args) > pos else kwargs[key]


def _make_hooks() -> dict:
    """Per-function work counters, keyed by traced name."""
    seen_boxes: set = set()

    def row_reduce(args, kwargs, result, counters) -> None:
        m = _arg(args, kwargs, 0, "m")
        counters["fp_linalg.row_reduce.entries"] += m.nrows * m.ncols

    def enumerate_box(args, kwargs, result, counters) -> None:
        key = (tuple(_arg(args, kwargs, 0, "caps")), _arg(args, kwargs, 1, "degree"))
        if key in seen_boxes:
            counters["monomial_box.enumerate_box.repeats"] += 1
        else:
            seen_boxes.add(key)

    def symmetrized_tensor(args, kwargs, result, counters) -> None:
        counters["trunc_power.symmetrized_tensor.words"] += len(result)

    def nabla_power_row(args, kwargs, result, counters) -> None:
        counters["filtration.nabla_power_row.word_entries"] += len(result)

    return {
        "fp_linalg.row_reduce": row_reduce,
        "monomial_box.enumerate_box": enumerate_box,
        "trunc_power.symmetrized_tensor": symmetrized_tensor,
        "filtration.nabla_power_row": nabla_power_row,
    }


def _short(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]


def install(tracer: Tracer, modules) -> None:
    """Wrap the public functions and classmethods defined in ``modules``.

    Every module in ``modules`` that binds one of those functions, under any
    name, gets the same wrapper.
    """
    hooks = _make_hooks()
    wrappers = {}
    for mod in modules:
        for attr, obj in vars(mod).items():
            if attr.startswith("_"):
                continue
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                name = f"{_short(mod.__name__)}.{attr}"
                wrappers[obj] = tracer.wrap(name, obj, hooks.get(name))
            elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                for meth, raw in list(vars(obj).items()):
                    if isinstance(raw, classmethod) and not meth.startswith("_"):
                        name = f"{_short(mod.__name__)}.{attr}.{meth}"
                        setattr(obj, meth, classmethod(tracer.wrap(name, raw.__func__)))
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(mod, attr, wrappers[obj])


class SpanTable:
    """Spans saved by ``Tracer.save``, with per-function aggregates."""

    def __init__(self, path: str) -> None:
        import numpy as np

        with np.load(path) as data:
            self.names = [str(n) for n in data["names"]]
            self.name = data["name"]
            self.parent = data["parent"]
            self.end = data["end"]
            busy = data["end"] - data["start"]
            busy[data["gen_index"]] = data["gen_busy"]
        has_parent = self.parent >= 0
        child = np.bincount(self.parent[has_parent], weights=busy[has_parent],
                            minlength=len(busy))
        self.busy = busy
        self._ids = {n: i for i, n in enumerate(self.names)}
        self._calls = np.bincount(self.name, minlength=len(self.names))
        self._self = np.bincount(self.name, weights=busy - child, minlength=len(self.names))

    def __len__(self) -> int:
        return len(self.busy)

    def _mask(self, fn: str):
        return self.name == self._ids.get(fn, -1)

    def calls(self, fn: str) -> int:
        return int(self._calls[self._ids[fn]]) if fn in self._ids else 0

    def self_s(self, fn: str) -> float:
        """Busy time of all calls of ``fn`` minus that of their direct children."""
        return float(self._self[self._ids[fn]]) if fn in self._ids else 0.0

    def durations(self, fn: str):
        return self.busy[self._mask(fn)]

    def last_end(self, fn: str) -> float:
        return float(self.end[self._mask(fn)].max())

    def calls_under(self, fn: str, parent_fn: str) -> int:
        """Calls of ``fn`` made directly from a span of ``parent_fn``."""
        mask = self._mask(fn) & (self.parent >= 0)
        parents = self.parent[mask]
        return int((self.name[parents] == self._ids.get(parent_fn, -1)).sum())

    def summary(self) -> dict:
        """Calls and self seconds of every traced function that was called."""
        return {n: {"calls": self.calls(n), "self_s": self.self_s(n)}
                for n in self.names if self.calls(n)}
