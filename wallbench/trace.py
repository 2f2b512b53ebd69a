"""Outside-in span tracing: timing wrappers installed by the benchmark.

A :class:`Tracer` records in-memory spans ``(id, parent, name, start,
end, value)`` around callables of the program *without editing it*:
:meth:`Tracer.install` swaps a class attribute or every module-level
binding of a function for a timing wrapper and :meth:`Tracer.uninstall`
puts the originals back. Parents come from a thread-local stack, so a
span started on a pool thread nests under whatever that thread is
running; :class:`TracingExecutor` hands the stage's span id across the
thread boundary explicitly. One tracer is one pass.

A target that no longer resolves (renamed, moved, deleted) is appended
to ``Tracer.missing`` and skipped — tracing never raises and never
touches the untraced run.
"""

from __future__ import annotations

import contextlib
import importlib
import itertools
import sys
import threading
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Sequence

from repro.parallel.executors import StageExecutor


@dataclass(frozen=True)
class Target:
    """One callable to wrap.

    ``path`` is ``"module:attr"`` for a module-level function (every
    ``repro.*`` module that imported it by name is rebound) or
    ``"module:Class.method"`` for a method. ``subclasses`` wraps the
    method on every subclass that defines it instead of on the named
    (abstract) class. ``value`` extracts one number from the return
    value to store with the span.
    """

    span: str
    path: str
    subclasses: bool = False
    value: Callable[[object], float] | None = None


def _all_subclasses(cls) -> list[type]:
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_all_subclasses(sub))
    return out


class Tracer:
    """Span recorder for one traced pass."""

    def __init__(self) -> None:
        #: (span id, parent id or 0, name, start, end, value or None)
        self.records: list[tuple] = []
        #: target paths that did not resolve at install time
        self.missing: list[str] = []
        self._resolved_spans: set[str] = set()
        self._lost_spans: set[str] = set()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------------

    def _stack(self) -> list[int]:
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = [0]
            return stack

    @contextlib.contextmanager
    def span(self, name: str, parent: int | None = None):
        """Record the ``with`` body as one span; yields its id."""
        stack = self._stack()
        sid = next(self._ids)
        up = stack[-1] if parent is None else parent
        stack.append(sid)
        start = perf_counter()
        try:
            yield sid
        finally:
            end = perf_counter()
            stack.pop()
            self.records.append((sid, up, name, start, end, None))

    def wrap(self, name: str, func, value=None):
        """Timing wrapper around *func* (the hot path: keep it lean)."""
        records, ids, local = self.records, self._ids, self._local

        def traced(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = [0]
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            start = perf_counter()
            result = None
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                noted = value(result) if value is not None and result is not None else None
                records.append((sid, parent, name, start, end, noted))

        traced.__wrapped__ = func
        return traced

    # -- installation ------------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _install_one(self, target: Target) -> bool:
        module_name, _, attr_path = target.path.partition(":")
        try:
            owner = importlib.import_module(module_name)
            *parents, attr = attr_path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            return False
        if target.subclasses:
            classes = [c for c in _all_subclasses(owner) if attr in vars(c)]
            for cls in classes:
                self._patch(cls, attr, self.wrap(target.span, vars(cls)[attr], target.value))
            return bool(classes)
        if parents:
            self._patch(owner, attr, self.wrap(target.span, original, target.value))
            return True
        # A module-level function: rebind it wherever the program
        # imported it by name, or callers keep the unwrapped original.
        wrapper = self.wrap(target.span, original, target.value)
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for key, bound in list(vars(module).items()):
                if bound is original:
                    self._patch(module, key, wrapper)
        return True

    def install(self, targets: Sequence[Target]) -> None:
        for target in targets:
            if self._install_one(target):
                self._resolved_spans.add(target.span)
            else:
                self.missing.append(target.path)
                self._lost_spans.add(target.span)

    @property
    def unresolved(self) -> set[str]:
        """Span names none of whose targets resolved: their metrics are null."""
        return self._lost_spans - self._resolved_spans

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self, targets: Sequence[Target]):
        self.install(targets)
        try:
            yield self
        finally:
            self.uninstall()

    # -- analysis ----------------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the part its children cover.

        Children of a stage span run on pool threads and overlap each
        other, so coverage is the union of their intervals, not the sum.
        """
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for _sid, parent, _name, start, end, _value in self.records:
            children[parent].append((start, end))
        out = {}
        for sid, _parent, _name, start, end, _value in self.records:
            covered = 0.0
            cursor = start
            for c0, c1 in sorted(children.get(sid, ())):
                c0, c1 = max(c0, cursor), min(c1, end)
                if c1 > c0:
                    covered += c1 - c0
                    cursor = c1
            out[sid] = (end - start) - covered
        return out

    def summary(self) -> dict[str, dict]:
        """Per span name: ``self_s``, ``total_s``, ``calls``, ``value``."""
        self_of = self.self_times()
        out: dict[str, dict] = {}
        for sid, _parent, name, start, end, value in self.records:
            row = out.setdefault(
                name, {"self_s": 0.0, "total_s": 0.0, "calls": 0, "value": 0.0}
            )
            row["self_s"] += self_of[sid]
            row["total_s"] += end - start
            row["calls"] += 1
            if value is not None:
                row["value"] += value
        return out


class TracingExecutor(StageExecutor):
    """Benchmark-owned stage executor: times stages and their tasks.

    Passed through the public ``executor=`` argument, it delegates to
    *inner* and records one ``parallel.stage`` span per stage with one
    ``parallel.task`` child per task; the child is opened on the pool
    thread with the stage's id as explicit parent, so everything the
    task calls nests under it.
    """

    def __init__(self, inner: StageExecutor, tracer: Tracer):
        self.inner = inner
        self.tracer = tracer

    def run_stage(self, tasks):
        tracer = self.tracer

        def bound(task, parent):
            def run():
                with tracer.span("parallel.task", parent=parent):
                    return task()

            return run

        with tracer.span("parallel.stage") as sid:
            return self.inner.run_stage([bound(task, sid) for task in tasks])

    def close(self) -> None:
        self.inner.close()
