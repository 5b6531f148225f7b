"""Span tracer that times dadkit's public functions from outside the package.

`Tracer.install` rebinds every public module-level function of the dadkit
modules, under every name it is bound to in any dadkit module, to one timing
wrapper per function; `uninstall` puts the originals back.  Nothing under
`src/` changes.  Each call of a wrapped function records exactly one span:
its name, its parent span's name, its duration, and its self time (duration
minus the time of its child spans).  The benchmark opens one root span per
CLI stage call, so the stage's self time is whatever no wrapper covers.

The tracer is single-threaded by design: every stage runs with --threads 1.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from contextlib import contextmanager
from typing import Callable, NamedTuple


class Span(NamedTuple):
    name: str
    parent: str | None
    phase: str          # "setup" or "round"
    total: float        # seconds
    self_time: float    # seconds, total minus child spans
    ok: bool            # False when the call raised
    note: object        # small per-call extract, see NOTES


def _sample_note(args, kwargs, result):
    mode = args[2] if len(args) > 2 else kwargs.get("mode", "inference")
    return mode, (len(result) if result is not None else 0)


def _dlt_note(args, kwargs, result):
    src = args[0] if args else kwargs.get("src")
    return len(src)


# Per-function extracts kept with the span: the sampling mode and keypoint
# count of each selection, and the correspondence count of each DLT solve
# (4 marks a RANSAC minimal sample).
NOTES: dict[str, Callable] = {
    "sampler.sample_keypoints": _sample_note,
    "evaluate.dlt_homography": _dlt_note,
}


PACKAGE = "dadkit"
# The benchmark's own root span around each CLI call stands for dadkit.cli.
UNWRAPPED = ("dadkit.cli",)


def span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"


class Tracer:
    """Collects spans in memory; `spans` is read after the traced work ends."""

    def __init__(self):
        self.phase = "round"
        self.spans: list[Span] = []
        self._stack: list[list] = []       # [name, start, child seconds]
        self._saved: list[tuple] = []      # (module, attribute, original)

    def _enter(self, name: str) -> list:
        frame = [name, 0.0, 0.0]
        self._stack.append(frame)
        frame[1] = time.perf_counter()
        return frame

    def _exit(self, frame: list, end: float, ok: bool, note) -> None:
        total = end - frame[1]
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError("span stack out of order; is a stage running threads?")
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += total
        self.spans.append(Span(frame[0], parent[0] if parent else None, self.phase,
                               total, total - frame[2], ok, note))

    @contextmanager
    def span(self, name: str):
        frame = self._enter(name)
        ok = False
        try:
            yield
            ok = True
        finally:
            self._exit(frame, time.perf_counter(), ok, None)

    def _wrap(self, fn):
        name = span_name(fn)
        note_fn = NOTES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._enter(name)
            ok, result = False, None
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.perf_counter()
                self._exit(frame, end, ok,
                           note_fn(args, kwargs, result) if note_fn else None)

        return wrapper

    def _targets(self):
        for modname, mod in sorted(sys.modules.items()):
            if mod is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
                continue
            for attr, val in list(vars(mod).items()):
                if (inspect.isfunction(val) and not attr.startswith("_")
                        and not val.__name__.startswith("_")
                        and val.__module__.startswith(PACKAGE + ".")
                        and val.__module__ not in UNWRAPPED):
                    yield mod, attr, val

    def install(self) -> int:
        """Wrap every public function under every binding; returns the count."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrappers: dict = {}
        for mod, attr, fn in list(self._targets()):
            if fn not in wrappers:
                wrappers[fn] = self._wrap(fn)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, wrappers[fn])
        return len(wrappers)

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()
