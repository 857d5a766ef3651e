"""In-memory spans recorded around the program's public entry points.

A Tracer replaces each named entry point, wherever a ``semspeech`` module or
class binds it, with a wrapper that records a span, and puts the originals
back on exit. Wrapping every binding matters because the package imports
most names by value (``from .nn.optim import adamw_step``): a call resolves
the name in the caller's module, so patching only the defining module would
miss it. Spans nest by call order on one thread; a span opened with no
parent starts a new trace id, which the spans it encloses share.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from pathlib import Path

_MARK = "__perfbench_traced__"


class Span:
    __slots__ = ("name", "start", "end", "parent", "trace", "info")

    def __init__(self, name, start, parent, trace):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.trace = trace
        self.info = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def span_cost(calls: int = 20_000) -> float:
    """Seconds a wrapped call adds over a plain one, measured in this process."""
    tracer = Tracer()

    def noop():
        return None

    traced = tracer._wrap(noop, "noop", None)
    start = time.perf_counter()
    for _ in range(calls):
        noop()
    mid = time.perf_counter()
    for _ in range(calls):
        traced()
    end = time.perf_counter()
    return max(0.0, ((end - mid) - (mid - start)) / calls)


class Tracer:
    """Records spans while installed; ``missing`` lists entry points not found."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._traces = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def _open(self, name: str) -> int:
        if self._stack:
            parent = self._stack[-1]
            trace = self.spans[parent].trace
        else:
            parent, trace = -1, self._traces
            self._traces += 1
        idx = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), parent, trace))
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, **info):
        """A span opened by the benchmark itself, around code it times."""
        idx = self._open(name)
        self.spans[idx].info = info or None
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, fn, name: str, info_fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if info_fn is not None:
                tracer.spans[idx].info = info_fn(args, kwargs, result)
            return result

        setattr(traced, _MARK, True)
        return traced

    # -- installing -----------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def wrap_function(self, module: str, func: str, name: str, info_fn=None) -> None:
        original = getattr(importlib.import_module(module), func, None)
        if original is None or getattr(original, _MARK, False):
            self.missing.append(f"{module}.{func}")
            return
        wrapper = self._wrap(original, name, info_fn)
        package = module.split(".")[0]
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, wrapper)

    def wrap_method(self, module: str, cls: str, meth: str, name: str, info_fn=None) -> None:
        owner = getattr(importlib.import_module(module), cls, None)
        raw = getattr(owner, "__dict__", {}).get(meth)
        if raw is None:
            self.missing.append(f"{module}.{cls}.{meth}")
            return
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(self._wrap(raw.__func__, name, info_fn))
        else:
            wrapped = self._wrap(raw, name, info_fn)
        self._patch(owner, meth, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading --------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the part its direct children cover.

        Spans nest by call order, so children are disjoint and the covered
        part is the sum of their durations.
        """
        out = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                out[s.parent] -= s.duration
        return out

    def dump(self, path: str | Path, origin: float) -> None:
        """Write every span, with times in seconds from ``origin``."""
        rows = [
            {
                "id": i,
                "name": s.name,
                "start": s.start - origin,
                "end": s.end - origin,
                "parent": s.parent,
                "trace": s.trace,
                "info": s.info,
            }
            for i, s in enumerate(self.spans)
        ]
        Path(path).write_text(json.dumps(rows))
