"""In-memory spans recorded by the benchmark around calls into each layer.

The program under test is not modified: :func:`instrument` swaps each
target function for a timing wrapper, in every loaded ``repro.*`` module
that binds it (so ``from x import f`` aliases are timed too) or on its
class for methods, and :meth:`Instrumentation.restore` swaps them back.

Spans stay in memory while the workload runs; :meth:`Recorder.write_jsonl`
writes them at the end in the record shape of :mod:`repro.obs.trace`, so
``python -m repro trace summary|tree|critical-path FILE`` reads them.
Span names are ``<layer>.<operation>``; the layer is the text before the
first dot.  The recorder is single-threaded: every workload calls the
program from one thread.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import time
import uuid
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping, Sequence

# (name, span_id, parent_id, perf_start, wall_s, cpu_s, attrs, error)
_Record = tuple


class Recorder:
    """Collects spans from the wrappers and from :meth:`span` blocks."""

    def __init__(self) -> None:
        self.records: list[_Record] = []
        self.trace_id = uuid.uuid4().hex[:16]
        self._stack: list[int] = []
        self._ids = itertools.count(1)
        self._epoch = time.time() - time.perf_counter()

    def wrap(
        self,
        function: Callable,
        name: str,
        attrs: Callable[..., dict[str, Any]] | None = None,
    ) -> Callable:
        """A wrapper recording one ``name`` span per call of ``function``."""
        records, stack, ids = self.records, self._stack, self._ids
        perf, cpu = time.perf_counter, time.process_time

        @functools.wraps(function)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            span_id = next(ids)
            parent = stack[-1] if stack else None
            extra = attrs(*args, **kwargs) if attrs is not None else None
            stack.append(span_id)
            error = None
            c0 = cpu()
            w0 = perf()
            try:
                return function(*args, **kwargs)
            except BaseException as exc:
                error = f"{type(exc).__name__}: {exc}"
                raise
            finally:
                w1 = perf()
                c1 = cpu()
                stack.pop()
                records.append((name, span_id, parent, w0, w1 - w0, c1 - c0, extra, error))

        return wrapper

    def span(self, span_name: str, /, **attrs: Any) -> "_Block":
        """Context manager recording one span around a block."""
        return _Block(self, span_name, attrs or None)

    def to_dicts(self, epoch: bool = True) -> list[dict[str, Any]]:
        """Spans in the :mod:`repro.obs.trace` JSONL record shape.

        With ``epoch=False``, ``t_start`` stays on the ``perf_counter``
        clock, whose resolution the self-time arithmetic wants.
        """
        pid = os.getpid()
        offset = self._epoch if epoch else 0.0
        out = []
        for name, span_id, parent, start, wall, cpu_s, attrs, error in self.records:
            record = {
                "name": name,
                "trace_id": self.trace_id,
                "span_id": f"{span_id:016x}",
                "parent_id": None if parent is None else f"{parent:016x}",
                "t_start": offset + start,
                "wall_s": wall,
                "cpu_s": cpu_s,
                "pid": pid,
                "attrs": attrs or {},
            }
            if error is not None:
                record["error"] = error
            out.append(record)
        return out

    def write_jsonl(self, path: str) -> int:
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        records = self.to_dicts()
        with open(path, "w", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record, default=str, separators=(",", ":")))
                handle.write("\n")
        return len(records)


class _Block:
    def __init__(self, recorder: Recorder, name: str, attrs: dict | None) -> None:
        self._recorder = recorder
        self._name = name
        self._attrs = attrs

    def __enter__(self) -> "_Block":
        recorder = self._recorder
        self._id = next(recorder._ids)
        self._parent = recorder._stack[-1] if recorder._stack else None
        recorder._stack.append(self._id)
        self._c0 = time.process_time()
        self._w0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        wall = time.perf_counter() - self._w0
        cpu_s = time.process_time() - self._c0
        self._recorder._stack.pop()
        error = None if exc_type is None else f"{exc_type.__name__}: {exc}"
        self._recorder.records.append(
            (self._name, self._id, self._parent, self._w0, wall, cpu_s, self._attrs, error)
        )


# --- patching --------------------------------------------------------------


@dataclass(frozen=True)
class Target:
    """One function to time: ``owner.attr`` (a module or a class)."""

    owner: str
    attr: str
    span: str
    attrs: Callable[..., dict[str, Any]] | None = None


class Instrumentation:
    """The swaps one :func:`instrument` call made, undone by :meth:`restore`."""

    def __init__(self) -> None:
        self._swaps: list[tuple[Any, str, Any]] = []

    def swap(self, holder: Any, attr: str, value: Any) -> None:
        self._swaps.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, value)

    def restore(self) -> None:
        for holder, attr, original in reversed(self._swaps):
            setattr(holder, attr, original)
        self._swaps.clear()


def _resolve(owner: str) -> Any:
    """Import ``pkg.module`` or ``pkg.module:Class``."""
    module_name, _, class_name = owner.partition(":")
    __import__(module_name)
    module = sys.modules[module_name]
    return getattr(module, class_name) if class_name else module


def instrument(recorder: Recorder, targets: Iterable[Target]) -> Instrumentation:
    """Swap every target for a recording wrapper; returns the undo record."""
    swaps = Instrumentation()
    for target in targets:
        owner = _resolve(target.owner)
        if isinstance(owner, type):
            original = owner.__dict__[target.attr]
            swaps.swap(owner, target.attr, recorder.wrap(original, target.span, target.attrs))
            continue
        original = getattr(owner, target.attr)
        wrapper = recorder.wrap(original, target.span, target.attrs)
        for name, module in sorted(sys.modules.items()):
            if not (name == "repro" or name.startswith("repro.")) or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    swaps.swap(module, attr, wrapper)
    return swaps


# --- analysis of recorded spans --------------------------------------------


def self_times(spans: Sequence[Mapping[str, Any]]) -> list[float]:
    """Per span: its wall time minus the part of its interval children cover.

    Children are spans whose ``parent_id`` is the span's ``span_id``; their
    intervals are clipped to the parent's and merged, so overlapping
    children are not subtracted twice.
    """
    children: dict[Any, list[tuple[float, float]]] = {}
    for span in spans:
        parent = span.get("parent_id")
        if parent is not None:
            start = float(span["t_start"])
            children.setdefault(parent, []).append((start, start + float(span["wall_s"])))
    out = []
    for span in spans:
        start = float(span["t_start"])
        end = start + float(span["wall_s"])
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(span["span_id"], ())):
            child_start = max(child_start, cursor)
            child_end = min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                cursor = child_end
        out.append(max(float(span["wall_s"]) - covered, 0.0))
    return out


def outermost(spans: Sequence[Mapping[str, Any]], names: set[str]) -> list[int]:
    """Indices of spans named in ``names`` with no ancestor named in ``names``.

    Summing their wall times gives a group's busy time without counting
    nested calls of the same group twice.
    """
    by_id = {span["span_id"]: span for span in spans}
    picked = []
    for index, span in enumerate(spans):
        if span["name"] not in names:
            continue
        parent = by_id.get(span.get("parent_id"))
        while parent is not None and parent["name"] not in names:
            parent = by_id.get(parent.get("parent_id"))
        if parent is None:
            picked.append(index)
    return picked


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]
