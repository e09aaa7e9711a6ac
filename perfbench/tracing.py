"""Span tracer that wraps dualhead's public layer functions from outside.

The program is never edited: ``Tracer.install`` replaces module
attributes and a few class attributes with timing wrappers, and
``Tracer.uninstall`` puts every original object back. Callers inside
dualhead reach these functions through module attributes (``nd.matmul``,
``losses_mod.cce``, ``model_mod.forward_key``) or through the class
(``pool.sample``), so a wrapper sees every call.

Each span records its name, start and end (``perf_counter_ns``), the span
that was open when it started, and a fit id. Spans live in per-thread
``array`` buffers while the run lasts; ``Tracer.spans`` turns them into
numpy columns and ``Tracer.save`` writes them out when the run ends.
A span opened on a thread with no open span of its own (a fit running
in ``cli._fit_many``'s thread pool) takes as parent the innermost open
span of the thread that installed the tracer.
"""

from __future__ import annotations

import itertools
import threading
import time
import types
from array import array
from pathlib import Path

import numpy as np

LAYERS = ("ndgrad", "model", "keypool", "losses", "trainer", "cli", "gradcheck")

# Class attributes wrapped in place, with the span name each one records.
# Both key generators share the "keypool.sample" name: one sampling contract.
CLASS_METHODS = {
    "ndgrad": {"Tensor": {"__init__": "ndgrad.Tensor", "backward": "ndgrad.backward"}},
    "keypool": {
        "KeyEntry": {"__init__": "keypool.KeyEntry"},
        "MocoQueues": {"sample": "keypool.sample", "enqueue": "keypool.enqueue"},
        "MemoryBank": {
            "sample": "keypool.sample",
            "entry": "keypool.entry",
            "update": "keypool.update",
            "initialize": "keypool.initialize",
        },
    },
}

# Module functions wrapped besides the public ones. keypool's module-level
# functions are thin aliases of the methods above and are left alone.
EXTRA_FUNCTIONS = {"cli": ("_fit_many",)}
SKIP_MODULE_FUNCTIONS = ("keypool",)

FIT_SPAN = "trainer.fit"
# The first argument of these is the closure gradcheck evaluates; it is
# wrapped so that every forward evaluation becomes a "gradcheck.forward" span.
FORWARD_ARG_SPANS = ("gradcheck.analytic_gradients", "gradcheck.finite_difference")
FORWARD_SPAN = "gradcheck.forward"

COLUMNS = ("id", "name", "start", "end", "parent", "fit")


class _ThreadBuffer:
    __slots__ = ("stack", "rows", "thread")

    def __init__(self, thread: int):
        self.stack: list[tuple[int, int]] = []
        self.rows = array("q")
        self.thread = thread


def wrap_targets(modules: dict) -> list[tuple[object, str, object, str]]:
    """Every (owner, attribute, original, span name) the tracer replaces."""
    targets = []
    for layer in LAYERS:
        mod = modules[layer]
        names = list(EXTRA_FUNCTIONS.get(layer, ()))
        if layer not in SKIP_MODULE_FUNCTIONS:
            names += [
                n for n, obj in vars(mod).items()
                if not n.startswith("_") and isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__
            ]
        for n in sorted(names):
            targets.append((mod, n, vars(mod)[n], f"{layer}.{n}"))
        for cls_name, methods in CLASS_METHODS.get(layer, {}).items():
            cls = vars(mod)[cls_name]
            for attr, span in methods.items():
                targets.append((cls, attr, vars(cls)[attr], span))
    return targets


class Tracer:
    """Records spans around every wrapped call while installed."""

    def __init__(self, modules: dict):
        self._modules = modules
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._ids = itertools.count()
        self._fit_ids = itertools.count()
        self._threads = itertools.count()
        self._local = threading.local()
        self._buffers: list[_ThreadBuffer] = []
        self._main: _ThreadBuffer | None = None
        self._installed: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self._names)
            self._names.append(name)
        return self._name_ids[name]

    def _buffer(self) -> _ThreadBuffer:
        try:
            return self._local.buf
        except AttributeError:
            buf = _ThreadBuffer(next(self._threads))
            self._local.buf = buf
            self._buffers.append(buf)
            return buf

    def wrap(self, fn, name: str):
        """A callable that runs ``fn`` inside a span called ``name``."""
        name_id = self._name_id(name)
        opens_fit = name == FIT_SPAN
        wraps_forward = name in FORWARD_ARG_SPANS
        ids, fit_ids, clock = self._ids, self._fit_ids, time.perf_counter_ns
        buffer, main = self._buffer, self._main_top

        def traced(*args, **kwargs):
            buf = buffer()
            stack = buf.stack
            parent, fit = stack[-1] if stack else main()
            if opens_fit:
                fit = next(fit_ids)
            if wraps_forward:
                args = (self.wrap(args[0], FORWARD_SPAN),) + args[1:]
            sid = next(ids)
            stack.append((sid, fit))
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                buf.rows.extend((sid, name_id, start, end, parent, fit))

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _main_top(self) -> tuple[int, int]:
        stack = self._main.stack
        return stack[-1] if stack else (-1, -1)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("tracer is already installed")
        self._main = self._buffer()
        for owner, attr, original, span in wrap_targets(self._modules):
            setattr(owner, attr, self.wrap(original, span))
            self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        """Put back every attribute ``install`` replaced."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- output --------------------------------------------------------------

    @property
    def names(self) -> list[str]:
        return list(self._names)

    def spans(self) -> dict[str, np.ndarray]:
        """All closed spans as columns, indexed by span id."""
        parts, threads = [], []
        for buf in self._buffers:
            rows = np.frombuffer(buf.rows, dtype=np.int64).reshape(-1, len(COLUMNS))
            parts.append(rows)
            threads.append(np.full(rows.shape[0], buf.thread, dtype=np.int64))
        rows = np.concatenate(parts) if parts else np.zeros((0, len(COLUMNS)), dtype=np.int64)
        thread = np.concatenate(threads) if threads else np.zeros(0, dtype=np.int64)
        order = np.argsort(rows[:, 0], kind="stable")
        out = {col: rows[order, i].copy() for i, col in enumerate(COLUMNS)}
        out["thread"] = thread[order]
        return out

    def save(self, path: Path, spans: dict[str, np.ndarray]) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self._names), **spans)


def self_time_ns(spans: dict[str, np.ndarray]) -> np.ndarray:
    """Each span's duration minus the union of its child spans' intervals.

    Children on one thread never overlap, but fits run by a thread pool
    do, so coverage is a true interval union: children are sorted by
    (parent, start), each parent's group is shifted onto its own stretch
    of the time axis, and a running maximum of end times gives the part
    of each child not already covered by an earlier sibling.
    """
    n = spans["id"].shape[0]
    dur = spans["end"] - spans["start"]
    kids = spans["parent"] >= 0
    parent, start, end = spans["parent"][kids], spans["start"][kids], spans["end"][kids]
    if parent.size == 0:
        return dur
    order = np.lexsort((start, parent))
    parent, start, end = parent[order], start[order], end[order]
    _, group = np.unique(parent, return_inverse=True)
    origin = int(start.min())
    width = int(end.max()) - origin + 1
    shifted_start = start - origin + group * width
    shifted_end = end - origin + group * width
    reach = np.maximum.accumulate(shifted_end)
    prev = np.concatenate(([np.iinfo(np.int64).min], reach[:-1]))
    covered = np.maximum(0, shifted_end - np.maximum(shifted_start, prev))
    coverage = np.bincount(parent, weights=covered, minlength=n)
    return dur - coverage
