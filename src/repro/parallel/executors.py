"""Stage executors: how a set of independent tasks actually runs.

WavePipe's schedulers emit *stages* — lists of closures with no mutual
data dependencies (the pipeline engine binds each stage task to its own
solver lane before handing it over). Two interchangeable runtimes
execute them:

* :class:`SerialExecutor` runs tasks in order on the calling thread. With
  the virtual clock this is the deterministic reference runtime (and, on
  a 1-CPU GIL-bound host, also the fastest in wall time).
* :class:`ThreadExecutor` runs a stage on ``max_workers`` OS threads at
  once: the calling thread runs slot 0 itself and ``max_workers - 1``
  persistent lane threads, fed through ``queue.SimpleQueue``, run the
  rest (slot *k* on lane ``k % max_workers``, lane 0 being the caller).
  There is no pool hop for the first task and no pool bookkeeping per
  task. Results are bit-identical to the serial runtime because no two
  tasks of a stage share mutable state (each runs in its own lane's
  buffers and solver); this runtime demonstrates that the decomposition
  is genuinely concurrent and would scale on a GIL-free multi-core
  interpreter.

Both return results in task order regardless of completion order, and
both let every task of a stage finish before the first failure in task
order is raised. Tracing is the caller's: the pipeline engine opens each
task's ``stage_task`` span inside the closure it hands over.
"""

from __future__ import annotations

import abc
import functools
import queue
import threading
import weakref
from typing import Callable, Sequence

from repro.errors import SimulationError


class StageExecutor(abc.ABC):
    """Runs one stage of independent tasks and returns ordered results."""

    #: Optional Recorder; the owning pipeline engine attaches its own.
    recorder = None

    @abc.abstractmethod
    def run_stage(self, tasks: Sequence[Callable[[], object]]) -> list[object]:
        """Execute every task; results positionally match *tasks*."""

    def close(self) -> None:
        """Release any pooled resources (no-op by default)."""

    def __enter__(self) -> "StageExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class SerialExecutor(StageExecutor):
    """Deterministic in-order execution on the calling thread."""

    def run_stage(self, tasks: Sequence[Callable[[], object]]) -> list[object]:
        return [task() for task in tasks]


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
