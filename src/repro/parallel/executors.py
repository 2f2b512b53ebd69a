"""Stage executors: how a set of independent tasks actually runs.

WavePipe's schedulers emit *stages* — lists of closures with no mutual
data dependencies. Two interchangeable runtimes execute them:

* :class:`SerialExecutor` runs tasks in order on the calling thread. With
  the virtual clock this is the deterministic reference runtime (and, on
  a 1-CPU GIL-bound host, also the fastest in wall time).
* :class:`ThreadExecutor` runs a stage on ``max_workers`` OS threads at
  once: the calling thread runs slot 0 itself and ``max_workers - 1``
  persistent lane threads, fed through ``queue.SimpleQueue``, run the
  rest (slot *k* on lane ``k % max_workers``, lane 0 being the caller).
  There is no pool hop for the first task and no pool bookkeeping per
  task. Results are bit-identical to the serial runtime because tasks
  are stateless with respect to shared objects (each allocates its own
  buffers and solver); this runtime demonstrates that the decomposition
  is genuinely concurrent and would scale on a GIL-free multi-core
  interpreter.

Both return results in task order regardless of completion order, and
both let every task of a stage finish before the first failure in task
order is raised.

Observability: when a :class:`~repro.instrument.Recorder` is attached
(``executor.recorder``, set by the pipeline engine), every task emits a
``stage_task`` event on its lane — lane *k+1* is task slot *k* of a
stage — which is what the Chrome-trace exporter turns into per-thread
occupancy rows.
"""

from __future__ import annotations

import abc
import functools
import queue
import threading
import weakref
from typing import Callable, Sequence

from repro.errors import SimulationError
from repro.instrument.events import STAGE_TASK


class StageExecutor(abc.ABC):
    """Runs one stage of independent tasks and returns ordered results."""

    #: Optional Recorder; the owning pipeline engine attaches its own.
    recorder = None

    #: Span id of the currently-running stage (set by the engine around
    #: each ``run_stage`` call); task spans attach to it explicitly since
    #: pool threads don't share the scheduler thread's span stack.
    parent_span = None

    #: Monotonic stage counter (tags stage_task events).
    _stage_index = 0

    @abc.abstractmethod
    def run_stage(self, tasks: Sequence[Callable[[], object]]) -> list[object]:
        """Execute every task; results positionally match *tasks*."""

    def close(self) -> None:
        """Release any pooled resources (no-op by default)."""

    def __enter__(self) -> "StageExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- instrumentation ---------------------------------------------------------

    def _instrumented(self, tasks: Sequence[Callable[[], object]]):
        """Wrap *tasks* so each records a lane-tagged ``stage_task`` span.

        Returns *tasks* untouched when no enabled recorder is attached —
        the uninstrumented path adds zero per-task overhead. The span id
        is stashed on the returned solution (``result.span_id``) so the
        scheduler's verify/commit phase can tag the outcome after the
        fact; Newton solves inside the task auto-nest under it.
        """
        rec = self.recorder
        if rec is None or not rec.enabled:
            return tasks
        stage = self._stage_index
        self._stage_index += 1
        parent = self.parent_span

        def wrap(task, lane):
            def run():
                sid = rec.begin_span(STAGE_TASK, lane=lane + 1, parent=parent)
                result = None
                try:
                    result = task()
                finally:
                    attrs = {"stage": stage}
                    # Solutions carry their target time and Newton cost;
                    # stay duck-typed so arbitrary closures keep working.
                    t_sim = getattr(result, "t", None)
                    inner = getattr(result, "result", None)
                    work = getattr(inner, "work_units", None)
                    if work is not None:
                        attrs["work_units"] = work
                        attrs["iterations"] = getattr(inner, "iterations", None)
                    rec.end_span(
                        sid,
                        cost=work if work is not None else 0.0,
                        t_sim=t_sim if isinstance(t_sim, float) else None,
                        **attrs,
                    )
                    try:
                        result.span_id = sid
                    except AttributeError:
                        pass
                return result

            return run

        return [wrap(task, lane) for lane, task in enumerate(tasks)]


class SerialExecutor(StageExecutor):
    """Deterministic in-order execution on the calling thread."""

    def run_stage(self, tasks: Sequence[Callable[[], object]]) -> list[object]:
        return [task() for task in self._instrumented(tasks)]


class ThreadExecutor(StageExecutor):
    """Real concurrent execution: the caller plus ``max_workers - 1`` lanes."""

    def __init__(self, max_workers: int):
        if max_workers < 1:
            raise SimulationError(
                f"ThreadExecutor needs max_workers >= 1, got {max_workers}"
            )
        self.max_workers = max_workers
        self._inboxes = [queue.SimpleQueue() for _ in range(max_workers - 1)]
        self._lanes = [
            threading.Thread(target=_serve, args=(inbox,), daemon=True)
            for inbox in self._inboxes
        ]
        for lane in self._lanes:
            lane.start()
        # Stops the lanes if the executor is dropped without close().
        inboxes = self._inboxes
        self._stop = weakref.finalize(self, lambda: [q.put(None) for q in inboxes])
        self._closed = False

    def run_stage(self, tasks: Sequence[Callable[[], object]]) -> list[object]:
        if self._closed:
            raise SimulationError(
                "ThreadExecutor is closed; create a new executor to run more stages"
            )
        tasks = self._instrumented(tasks)
        width = self.max_workers
        outcomes: list[tuple[bool, object] | None] = [None] * len(tasks)
        done = queue.SimpleQueue()

        def run_slots(first: int) -> None:
            for k in range(first, len(tasks), width):
                try:
                    outcomes[k] = (True, tasks[k]())
                except BaseException as error:  # re-raised below, in task order
                    outcomes[k] = (False, error)
            done.put(first)

        busy = self._inboxes[: max(len(tasks) - 1, 0)]
        for first, inbox in enumerate(busy, start=1):
            inbox.put(functools.partial(run_slots, first))
        run_slots(0)
        # Every task finishes before anything surfaces: nothing is left
        # running mid-flight, and the first failure in task order wins
        # (what SerialExecutor would raise) with its original traceback.
        for _ in range(len(busy) + 1):
            done.get()
        for ok, value in outcomes:
            if not ok:
                raise value
        return [value for _, value in outcomes]

    def close(self) -> None:
        """Stop and join the lane threads; safe to call any number of times."""
        if self._closed:
            return
        self._closed = True
        self._stop()
        for lane in self._lanes:
            lane.join()


def _serve(inbox: queue.SimpleQueue) -> None:
    """A lane thread: run each job it is handed (its slots of a stage,
    which never raise) until the ``None`` stop message."""
    while (job := inbox.get()) is not None:
        job()


def make_executor(kind: str, threads: int) -> StageExecutor:
    """Factory: ``"serial"`` or ``"thread"``."""
    if kind == "serial":
        return SerialExecutor()
    if kind == "thread":
        return ThreadExecutor(threads)
    raise SimulationError(f"unknown executor kind {kind!r} (serial|thread)")
