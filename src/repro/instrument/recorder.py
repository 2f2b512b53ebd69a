"""Zero-dependency run instrumentation: counters, histograms, events.

The engine is instrumented at every layer (Newton solver, step control,
transient loop, pipeline schemes, stage executors), but tracing must cost
nothing when nobody is looking — WavePipe's speedup tables are timing
studies. Two recorder types realise that bargain:

* :class:`Recorder` — collects named counters, value histograms and
  :class:`~repro.instrument.events.TraceEvent` records, thread-safe so
  ``ThreadExecutor`` tasks can emit concurrently.
* :class:`NullRecorder` — every method is a no-op and ``enabled`` is
  False. Instrumented call sites guard their event construction with
  ``if rec.enabled:`` so the disabled path costs one attribute read and
  a branch per *solve* (not per iteration).

A process-global default (initially a :class:`NullRecorder`) backs call
sites that were not handed an explicit recorder through
``SimOptions.instrument``; :func:`use_recorder` binds a replacement for
the current thread only (a contextvar, nestable), which is how the bench
harness attaches metrics collection to whole experiment campaigns — and
how concurrent farm-node threads each run jobs under their own per-job
telemetry recorder without cross-contaminating one another's counters.
"""

from __future__ import annotations

import contextlib
import contextvars
import math
import threading
import time
from collections import deque
from dataclasses import dataclass, field

from repro.instrument.events import TraceEvent

#: Counter booked whenever an event is not retained (capacity overflow in
#: ``drop`` mode, eviction of the oldest record in ``tail`` mode).
EVENTS_DROPPED = "instrument.events_dropped"


@dataclass
class Histogram:
    """Streaming summary of one observed quantity (no sample retention)."""

    count: int = 0
    total: float = 0.0
    minimum: float = float("inf")
    maximum: float = float("-inf")
    #: log2 bucket -> count; bucket is floor(log2(max(value, eps))).
    buckets: dict[int, int] = field(default_factory=dict)

    def add(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        bucket = _log2_bucket(value)
        self.buckets[bucket] = self.buckets.get(bucket, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.minimum if self.count else None,
            "max": self.maximum if self.count else None,
            "mean": self.mean,
            "buckets": dict(self.buckets),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Histogram":
        """Rebuild from :meth:`to_dict` output (JSON string keys accepted)."""
        hist = cls()
        hist.merge_dict(data)
        return hist

    def merge_dict(self, data: dict) -> None:
        """Fold another histogram's :meth:`to_dict` summary into this one."""
        count = int(data.get("count", 0))
        if count <= 0:
            return
        self.count += count
        self.total += float(data.get("total", 0.0))
        low, high = data.get("min"), data.get("max")
        if low is not None and float(low) < self.minimum:
            self.minimum = float(low)
        if high is not None and float(high) > self.maximum:
            self.maximum = float(high)
        for bucket, n in (data.get("buckets") or {}).items():
            key = int(bucket)  # JSON round-trips dict keys as strings
            self.buckets[key] = self.buckets.get(key, 0) + int(n)


def _log2_bucket(value: float) -> int:
    if value <= 0.0:
        return -1075  # below the smallest subnormal: its own bucket
    return math.frexp(value)[1] - 1


class Recorder:
    """Collecting recorder: counters + histograms + bounded event log.

    ``evict`` picks the overflow policy once ``max_events`` is reached:
    ``"drop"`` (the default) keeps the *first* events and discards new
    ones — the cheap choice for whole-run traces; ``"tail"`` keeps the
    *last* events in a ring buffer — what worker processes use so a
    crash post-mortem sees how the run ended, not how it began. Either
    way every unretained event is tallied in ``dropped_events`` and the
    ``instrument.events_dropped`` counter.
    """

    enabled = True

    def __init__(
        self,
        capture_events: bool = True,
        max_events: int = 500_000,
        evict: str = "drop",
    ):
        if evict not in ("drop", "tail"):
            raise ValueError(f"evict must be 'drop' or 'tail', got {evict!r}")
        self.capture_events = capture_events
        self.max_events = max_events
        self.evict = evict
        self.counters: dict[str, float] = {}
        self.histograms: dict[str, Histogram] = {}
        self.events = deque(maxlen=max_events) if evict == "tail" else []
        self.dropped_events = 0
        #: span path ("run/timestep/newton_solve") -> {"count", "cost"}.
        #: The deterministic aggregate of the span tree: pure counts and
        #: virtual-clock work units, no wall time, so it can ride the
        #: cached telemetry slice byte-stably.
        self.span_totals: dict[str, dict] = {}
        self._span_seq = 0
        self._open_spans: dict[int, list] = {}
        self._span_index: dict[int, TraceEvent] = {}
        self._span_tls = threading.local()
        self._lock = threading.Lock()
        self._epoch = time.perf_counter()

    # -- time -----------------------------------------------------------------

    def clock(self) -> float:
        """Seconds since this recorder was created (event timebase)."""
        return time.perf_counter() - self._epoch

    # -- scalar channels --------------------------------------------------------

    def count(self, name: str, value: float = 1) -> None:
        """Add *value* to the named counter."""
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def observe(self, name: str, value: float) -> None:
        """Record one sample into the named histogram."""
        with self._lock:
            hist = self.histograms.get(name)
            if hist is None:
                hist = self.histograms[name] = Histogram()
            hist.add(value)

    # -- events -----------------------------------------------------------------

    def event(
        self,
        name: str,
        ts: float | None = None,
        dur: float | None = None,
        lane: int = 0,
        t_sim: float | None = None,
        **attrs,
    ) -> None:
        """Append one trace event (dropped beyond ``max_events``)."""
        if not self.capture_events:
            return
        if ts is None:
            ts = self.clock()
        record = TraceEvent(name, ts, dur, lane, t_sim, attrs)
        with self._lock:
            self._append_record(record)

    def _append_record(self, record: TraceEvent) -> None:
        """Append under the caller-held lock, honouring the evict policy."""
        if len(self.events) >= self.max_events:
            self.dropped_events += 1
            self.counters[EVENTS_DROPPED] = self.counters.get(EVENTS_DROPPED, 0) + 1
            if self.evict == "drop":
                return
        self.events.append(record)

    # -- span tree --------------------------------------------------------------
    #
    # Tree spans are completed TraceEvents whose attrs carry ``span`` (an
    # id unique within this recorder), optionally ``parent`` (another
    # span's id), ``outcome`` and ``cost`` (virtual-clock work units).
    # Parentage nests automatically per thread: a begin_span on the same
    # thread as an open span becomes its child, which is how a Newton
    # solve lands inside the timestep that requested it. Cross-thread
    # children (stage tasks running on pool threads) pass ``parent=``
    # explicitly. See repro.instrument.spans for tree reconstruction.

    #: Bound on the id->event map kept for post-hoc outcome tagging; old
    #: entries are evicted FIFO (tags land promptly in practice — the
    #: verify phase of the very next stage).
    SPAN_INDEX_CAP = 8192

    def _thread_stack(self) -> list:
        stack = getattr(self._span_tls, "stack", None)
        if stack is None:
            stack = self._span_tls.stack = []
        return stack

    def begin_span(
        self,
        name: str,
        lane: int | None = None,
        t_sim: float | None = None,
        parent: int | None = None,
        **attrs,
    ) -> int:
        """Open a tree span; returns its id (0 on a NullRecorder).

        ``lane=None`` inherits the parent's lane (explicit or enclosing),
        so nested solver spans stay on the worker lane that ran them.
        """
        stack = self._thread_stack()
        with self._lock:
            self._span_seq += 1
            sid = self._span_seq
            if parent is None and stack:
                parent = stack[-1]
            entry = self._open_spans.get(parent) if parent is not None else None
            if lane is None:
                lane = entry[3] if entry is not None else 0
            path = f"{entry[0]}/{name}" if entry is not None else name
            # entry: [path, t0, t_sim, lane, parent, attrs]
            self._open_spans[sid] = [path, self.clock(), t_sim, lane, parent, attrs]
        stack.append(sid)
        return sid

    def end_span(
        self,
        span_id: int,
        outcome: str | None = None,
        cost: float | None = None,
        t_sim: float | None = None,
        **attrs,
    ) -> None:
        """Close a tree span, folding it into ``span_totals``.

        ``t_sim`` overrides the begin-time value when given (a stage task
        only learns its target time from the solution it produced).
        """
        stack = self._thread_stack()
        if span_id in stack:
            del stack[stack.index(span_id):]
        with self._lock:
            entry = self._open_spans.pop(span_id, None)
            if entry is None:
                return
            path, t0, t_sim0, lane, parent, open_attrs = entry
            self._close_span_locked(
                path, t0, self.clock() - t0, lane,
                t_sim if t_sim is not None else t_sim0, span_id, parent,
                outcome, cost, {**open_attrs, **attrs},
            )

    def emit_span(
        self,
        name: str,
        ts: float,
        dur: float,
        lane: int | None = None,
        t_sim: float | None = None,
        parent: int | None = None,
        outcome: str | None = None,
        cost: float | None = None,
        **attrs,
    ) -> int:
        """Record an already-delimited span in one call (returns its id).

        Used for synthesized spans (solver phases laid out inside their
        parent's wall interval) and after-the-fact spans whose duration
        was measured externally (batch job outcomes).
        """
        stack = self._thread_stack()
        with self._lock:
            self._span_seq += 1
            sid = self._span_seq
            if parent is None and stack:
                parent = stack[-1]
            entry = self._open_spans.get(parent) if parent is not None else None
            if lane is None:
                lane = entry[3] if entry is not None else 0
            path = f"{entry[0]}/{name}" if entry is not None else name
            self._close_span_locked(
                path, ts, dur, lane, t_sim, sid, parent, outcome, cost, attrs
            )
        return sid

    def _close_span_locked(
        self, path, ts, dur, lane, t_sim, sid, parent, outcome, cost, attrs
    ) -> None:
        total = self.span_totals.get(path)
        if total is None:
            total = self.span_totals[path] = {"count": 0, "cost": 0.0}
        total["count"] += 1
        total["cost"] += float(cost) if cost is not None else 0.0
        attrs["span"] = sid
        if parent is not None:
            attrs["parent"] = parent
        if outcome is not None:
            attrs["outcome"] = outcome
        if cost is not None:
            attrs["cost"] = cost
        if not self.capture_events:
            return
        record = TraceEvent(name=path.rsplit("/", 1)[-1], ts=ts, dur=dur,
                            lane=lane, t_sim=t_sim, attrs=attrs)
        self._append_record(record)
        self._span_index[sid] = record
        while len(self._span_index) > self.SPAN_INDEX_CAP:
            self._span_index.pop(next(iter(self._span_index)))

    def tag_span(
        self,
        span_id: int | None,
        outcome: str | None = None,
        overwrite: bool = True,
        **attrs,
    ):
        """Attach an outcome (decided later) to an already-closed span.

        Pipeline candidate points learn their fate only when the
        scheduler verifies the stage, well after the solve span closed on
        its worker lane. No-op for unknown/evicted ids and ``None``.
        ``overwrite=False`` keeps an outcome that is already set — the
        blanket waste-tagging pass must not clobber a specific cause
        (``newton_fail``/``lte_reject``) recorded moments earlier.
        """
        if not span_id:
            return
        with self._lock:
            record = self._span_index.get(span_id)
            if record is None:
                return
            if outcome is not None and (overwrite or "outcome" not in record.attrs):
                record.attrs["outcome"] = outcome
            record.attrs.update(attrs)

    @contextlib.contextmanager
    def tree_span(
        self,
        name: str,
        lane: int | None = None,
        t_sim: float | None = None,
        parent: int | None = None,
        **attrs,
    ):
        """Contextmanager form of :meth:`begin_span`/:meth:`end_span`."""
        sid = self.begin_span(name, lane=lane, t_sim=t_sim, parent=parent, **attrs)
        try:
            yield sid
        finally:
            self.end_span(sid)

    # -- snapshots --------------------------------------------------------------

    def counter(self, name: str, default: float = 0) -> float:
        return self.counters.get(name, default)

    def snapshot(self, events_tail: int = 0) -> dict:
        """JSON-safe snapshot of counters and histogram summaries.

        With ``events_tail > 0`` the snapshot also carries the last that
        many events (as :meth:`TraceEvent.to_dict` rows) under
        ``"events_tail"`` — the portable form another process's recorder
        can absorb via :meth:`merge`.
        """
        with self._lock:
            snap = {
                "counters": dict(self.counters),
                "histograms": {k: h.to_dict() for k, h in self.histograms.items()},
                "events": len(self.events),
                "dropped_events": self.dropped_events,
            }
            if self.span_totals:
                snap["span_totals"] = {
                    path: dict(total)
                    for path, total in sorted(self.span_totals.items())
                }
            if events_tail > 0:
                tail = list(self.events)[-events_tail:]
                snap["events_tail"] = [ev.to_dict() for ev in tail]
        return snap

    def merge(
        self,
        snapshot: dict | None,
        parent: int | None = None,
        at: float | None = None,
    ) -> None:
        """Fold another recorder's :meth:`snapshot` into this one.

        Counters add, histograms combine (count/total/min/max and log2
        buckets), ``dropped_events`` accumulates, and any serialized
        ``events_tail`` rows are appended to the event log (subject to
        this recorder's own capacity and evict policy). Event timestamps
        in the snapshot are relative to the *sending* recorder's epoch
        (its own perf_counter zero), so they are rebased onto this
        recorder's clock: the tail is shifted so its last event ends at
        merge time — which for the batch scheduler is right after the
        worker finished — with relative spacing inside the tail
        preserved. This is how the batch scheduler aggregates per-worker
        telemetry into the campaign-level recorder.

        Args:
            parent: a span id in *this* recorder to re-parent the tail's
                root spans under. Without it, sender spans whose parent
                is unknown here become roots; with it, the whole worker
                tree hangs under the caller's span (the distributed-trace
                stitch: a worker's spans become children of the service
                request that caused them).
            at: timestamp on this recorder's clock the tail should end
                at, instead of "now". Callers that emit the enclosing
                span first pass its end time so the rebased tail stays
                inside the parent span's interval.
        """
        if not snapshot:
            return
        with self._lock:
            for name, value in (snapshot.get("counters") or {}).items():
                self.counters[name] = self.counters.get(name, 0) + value
            for name, data in (snapshot.get("histograms") or {}).items():
                hist = self.histograms.get(name)
                if hist is None:
                    hist = self.histograms[name] = Histogram()
                hist.merge_dict(data)
            self.dropped_events += int(snapshot.get("dropped_events", 0))
            for path, total in (snapshot.get("span_totals") or {}).items():
                mine = self.span_totals.get(path)
                if mine is None:
                    mine = self.span_totals[path] = {"count": 0, "cost": 0.0}
                mine["count"] += int(total.get("count", 0))
                mine["cost"] += float(total.get("cost", 0.0))
            if self.capture_events:
                rows = snapshot.get("events_tail") or ()
                if rows:
                    tail_end = max(
                        row["ts"] + (row.get("dur") or 0.0) for row in rows
                    )
                    offset = (at if at is not None else self.clock()) - tail_end
                    # Span ids in the tail were allocated by the sender;
                    # give them fresh ids here so merged trees from many
                    # workers cannot collide. Parents whose own record
                    # fell out of the sender's ring become roots.
                    remap: dict = {}
                    for row in rows:
                        sid = (row.get("attrs") or {}).get("span")
                        if sid is not None:
                            self._span_seq += 1
                            remap[sid] = self._span_seq
                for row in rows:
                    attrs = row.get("attrs", {})
                    if "span" in attrs:
                        attrs = dict(attrs)
                        attrs["span"] = remap[attrs["span"]]
                        row_parent = attrs.get("parent")
                        if row_parent is not None and row_parent in remap:
                            attrs["parent"] = remap[row_parent]
                        elif parent is not None:
                            attrs["parent"] = parent
                        elif row_parent is not None:
                            del attrs["parent"]
                    self._append_record(
                        TraceEvent(
                            name=row["name"],
                            ts=row["ts"] + offset,
                            dur=row.get("dur"),
                            lane=row.get("lane", 0),
                            t_sim=row.get("t_sim"),
                            attrs=attrs,
                        )
                    )

    @property
    def lanes(self) -> list[int]:
        """Sorted lane ids appearing in the event log."""
        return sorted({ev.lane for ev in self.events})


class _NullSpan:
    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class NullRecorder:
    """Recorder whose every operation is a no-op (the default)."""

    enabled = False
    capture_events = False
    counters: dict[str, float] = {}
    histograms: dict[str, Histogram] = {}
    events: list[TraceEvent] = []
    span_totals: dict[str, dict] = {}
    dropped_events = 0

    def clock(self) -> float:
        return 0.0

    def count(self, name: str, value: float = 1) -> None:
        pass

    def observe(self, name: str, value: float) -> None:
        pass

    def event(self, name: str, **kwargs) -> None:
        pass

    def begin_span(self, name: str, **kwargs) -> int:
        return 0

    def end_span(self, span_id: int, **kwargs) -> None:
        pass

    def emit_span(self, name: str, ts: float, dur: float, **kwargs) -> int:
        return 0

    def tag_span(self, span_id, outcome=None, **attrs) -> None:
        pass

    def tree_span(self, name: str, **kwargs):
        return _NULL_SPAN

    def counter(self, name: str, default: float = 0) -> float:
        return default

    def snapshot(self, events_tail: int = 0) -> dict:
        return {"counters": {}, "histograms": {}, "events": 0, "dropped_events": 0}

    def merge(self, snapshot) -> None:
        pass

    @property
    def lanes(self) -> list[int]:
        return []


#: Shared inert instance; identity-comparable, safe because it is stateless.
NULL_RECORDER = NullRecorder()

_default_recorder = NULL_RECORDER
_default_lock = threading.Lock()

#: Thread/task-scoped ambient recorder. :func:`use_recorder` binds here
#: first, so two threads scoping different recorders concurrently (e.g.
#: in-process farm nodes running per-job telemetry recorders) never see
#: each other's — a shared global swap would let one thread's solver
#: counts land in another job's about-to-be-discarded recorder.
_scoped_recorder = contextvars.ContextVar("repro_recorder", default=None)


def get_recorder():
    """The ambient recorder: the current scope's, else the process default.

    :func:`use_recorder` scopes are thread-local (contextvar), so a
    freshly spawned thread starts from the process default set by
    :func:`set_recorder` — not from whatever scope its parent happened
    to be inside.
    """
    scoped = _scoped_recorder.get()
    if scoped is not None:
        return scoped
    return _default_recorder


def set_recorder(recorder) -> object:
    """Install *recorder* as the process default; returns the previous one.

    Passing None restores the inert :data:`NULL_RECORDER`.
    """
    global _default_recorder
    with _default_lock:
        previous = _default_recorder
        _default_recorder = recorder if recorder is not None else NULL_RECORDER
    return previous


@contextlib.contextmanager
def use_recorder(recorder):
    """Bind *recorder* as the ambient recorder for the current scope.

    The binding is a contextvar: it only affects the calling thread (and
    asyncio tasks forked from it), and nests correctly. The process
    default from :func:`set_recorder` is untouched, so threads spawned
    *inside* the scope still fall back to it.
    """
    token = _scoped_recorder.set(recorder if recorder is not None else NULL_RECORDER)
    try:
        yield recorder
    finally:
        _scoped_recorder.reset(token)


def resolve_recorder(instrument):
    """Recorder an engine should use given its ``SimOptions.instrument``.

    None falls back to the process-global default; ``True`` is a
    convenience for "allocate a fresh collecting recorder".
    """
    if instrument is None:
        return get_recorder()
    if instrument is True:
        return Recorder()
    return instrument
