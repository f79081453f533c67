"""In-memory span tracer for the traced benchmark run.

Spans are recorded from the benchmark's side only: ``install`` replaces
names in ``htks.pipeline`` and ``htks.cli`` with wrappers that open a span
around each call. When a wrapped call returns an iterator, each ``next()``
on it is a span too, a child of whichever span is open when it is pulled;
that is how the lazily parsed pose and decision streams are charged to the
layer that parses them and not to the layer that consumes them.

A span's self time is its duration minus the durations of its direct
children. Spans stay in flat arrays until the run ends.
"""

from __future__ import annotations

import importlib
from array import array
from collections.abc import Iterator, Sized
from time import perf_counter

import numpy as np

CALL, PULL = 0, 1

# (module, attribute, span name, result attribute counted as the span's work)
TRACED_NAMES = (
    ("htks.cli", "run_pipeline", "pipeline.run_pipeline", None),
    ("htks.cli", "synth_generate", "synth.generate", None),
    ("htks.cli", "write_poses", "formats.write_poses", None),
    ("htks.cli", "write_labels", "formats.write_labels", None),
    ("htks.pipeline", "iter_poses", "formats.read_poses", None),
    ("htks.pipeline", "calibration_scale", "classifier.calibration", None),
    ("htks.pipeline", "classify", "classifier.classify", None),
    ("htks.pipeline", "write_decisions", "formats.write_decisions", None),
    ("htks.pipeline", "iter_decisions", "formats.read_decisions", None),
    ("htks.pipeline", "load_labels", "formats.load_labels", None),
    ("htks.pipeline", "load_script", "formats.load_script", None),
    ("htks.pipeline", "build_confusion", "evaluation.build_confusion", "total"),
    ("htks.pipeline", "report", "evaluation.report", None),
    ("htks.pipeline", "score_session", "game.score_session", "num_trials"),
    ("htks.pipeline", "write_report_json", "formats.write_report_json", None),
    ("htks.pipeline", "write_report_text", "formats.write_report_text", None),
    ("htks.pipeline", "write_session_json", "formats.write_session_json", None),
)

ROOT = "cli.main"


class Tracer:
    """Flat, append-only span store shared by every wrapper of one run."""

    def __init__(self):
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.name = array("i")
        self.kind = array("b")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        # Per span name: items yielded by its iterators, or len() of an eager
        # result, plus any result attribute named in TRACED_NAMES.
        self.items: dict[int, int] = {}
        self.measured: dict[int, int] = {}

    def name_index(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def open(self, name_ix: int, kind: int = CALL) -> int:
        span = len(self.end)
        self.name.append(name_ix)
        self.kind.append(kind)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(span)
        self.start.append(perf_counter())
        return span

    def close(self, span: int) -> None:
        self.end[span] = perf_counter()
        self._stack.pop()

    def add(self, table: dict[int, int], name_ix: int, amount: int) -> None:
        table[name_ix] = table.get(name_ix, 0) + amount

    def begin_op(self) -> int:
        """Open the root span of one op; returns it for ``end_op``."""
        self.items.clear()
        self.measured.clear()
        return self.open(self.name_index(ROOT))

    def end_op(self, root: int) -> dict:
        """Close the op's root span and summarize the spans under it: self
        time, calls and work per span name, and the op's wall time."""
        self.close(root)
        names = _tail(self.name, np.int32, root)
        kinds = _tail(self.kind, np.int8, root)
        parents = _tail(self.parent, np.int32, root) - root
        duration = _tail(self.end, np.float64, root) - _tail(self.start, np.float64, root)
        nested = parents >= 0
        children = np.bincount(parents[nested], weights=duration[nested], minlength=len(names))
        self_time = np.bincount(names, weights=duration - children, minlength=len(self.names))
        calls = np.bincount(names[kinds == CALL], minlength=len(self.names))
        spans = {}
        for ix, name in enumerate(self.names):
            spans[name] = {
                "self_s": float(self_time[ix]),
                "calls": int(calls[ix]),
                "items": self.items.get(ix, 0),
                "measured": self.measured.get(ix, 0),
            }
        return {"wall_s": float(duration[0]), "spans": spans}

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name=_tail(self.name, np.int32, 0),
            kind=_tail(self.kind, np.int8, 0),
            parent=_tail(self.parent, np.int32, 0),
            start=_tail(self.start, np.float64, 0),
            end=_tail(self.end, np.float64, 0),
        )


def _tail(values: array, dtype, first: int) -> np.ndarray:
    # A copy, so that no buffer export blocks the array from growing.
    return np.frombuffer(values, dtype=dtype)[first:].copy()


class _TracedIterator:
    __slots__ = ("_tracer", "_ix", "_it")

    def __init__(self, tracer: Tracer, name_ix: int, it: Iterator):
        self._tracer, self._ix, self._it = tracer, name_ix, it

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self._tracer
        span = tracer.open(self._ix, PULL)
        try:
            item = next(self._it)
        finally:
            tracer.close(span)
        tracer.add(tracer.items, self._ix, 1)
        return item


def _wrap(tracer: Tracer, fn, name: str, measure_attr):
    ix = tracer.name_index(name)

    def traced(*args, **kwargs):
        span = tracer.open(ix)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if measure_attr is not None:
            tracer.add(tracer.measured, ix, int(getattr(result, measure_attr, 0)))
        if isinstance(result, Iterator):
            return _TracedIterator(tracer, ix, result)
        if isinstance(result, Sized):
            tracer.add(tracer.items, ix, len(result))
        return result

    return traced


def install(tracer: Tracer) -> list:
    """Wrap every name in TRACED_NAMES that exists; returns the undo list.

    A name the program no longer has is skipped, so it reports zero calls.
    """
    tracer.name_index(ROOT)
    undo = []
    for module_name, attr, span_name, measure_attr in TRACED_NAMES:
        tracer.name_index(span_name)
        module = importlib.import_module(module_name)
        fn = getattr(module, attr, None)
        if fn is None:
            continue
        undo.append((module, attr, fn))
        setattr(module, attr, _wrap(tracer, fn, span_name, measure_attr))
    return undo


def uninstall(undo: list) -> None:
    for module, attr, fn in reversed(undo):
        setattr(module, attr, fn)
