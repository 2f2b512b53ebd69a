"""Chaos scheduling: adversarial task ordering for the parallel runtime.

WavePipe's correctness argument rests on stage tasks being independent —
each solves its time point against a history snapshot taken *before* the
stage, so the order tasks actually run in (which a real thread pool does
not control) must not change any committed result.
:class:`ChaosExecutor` turns that assumption into a testable property: it
wraps any :class:`~repro.parallel.executors.StageExecutor` and, driven by
a seeded RNG, permutes the order tasks are handed to the inner runtime,
optionally injects delays (to scramble completion order on a real pool)
and faults (to exercise error propagation). Results always come back in
the original task order, exactly like the executors it wraps, so it can
be dropped into any pipeline run.

Determinism: every random decision (permutation, delay, fault) is drawn
at *scheduling* time on the calling thread, never inside a task, so the
same seed replays the same chaos even under a thread-pool inner executor.
"""

from __future__ import annotations

import random
import time
from typing import Callable, Sequence

from repro.instrument.events import CHAOS_STAGE
from repro.parallel.executors import SerialExecutor, StageExecutor


class ChaosFault(RuntimeError):
    """Fault deliberately injected into a stage task by ChaosExecutor."""


class ChaosExecutor(StageExecutor):
    """Stage executor that deterministically scrambles task scheduling.

    Args:
        inner: the real runtime to delegate to (default: a fresh
            :class:`~repro.parallel.executors.SerialExecutor`).
        seed: seeds the private RNG behind every chaos decision.
        max_delay: per-task sleep upper bound in seconds (0 disables);
            useful with a thread-pool inner executor to force completion
            orders the pool would rarely produce on its own.
        fault_rate: probability in [0, 1] that a task raises
            :class:`ChaosFault` instead of running (0 disables). Used to
            prove stage-failure propagation, not in equivalence runs.
    """

    def __init__(
        self,
        inner: StageExecutor | None = None,
        seed: int = 0,
        max_delay: float = 0.0,
        fault_rate: float = 0.0,
    ):
        self.inner = inner if inner is not None else SerialExecutor()
        self.seed = seed
        self.max_delay = max_delay
        self.fault_rate = fault_rate
        self._rng = random.Random(seed)

    def run_stage(self, tasks: Sequence[Callable[[], object]]) -> list[object]:
        rec = self.recorder
        order = list(range(len(tasks)))
        self._rng.shuffle(order)
        scrambled = [self._wrap(tasks[i]) for i in order]
        if rec is not None and rec.enabled:
            rec.count("chaos.stages")
            rec.count("chaos.tasks", len(tasks))
            rec.event(CHAOS_STAGE, permutation=order)
        permuted = self.inner.run_stage(scrambled)
        results: list[object] = [None] * len(tasks)
        for position, original in enumerate(order):
            results[original] = permuted[position]
        return results

    def _wrap(self, task: Callable[[], object]) -> Callable[[], object]:
        """Attach the chaos drawn for this task (decided now, not in-task)."""
        delay = self._rng.uniform(0.0, self.max_delay) if self.max_delay > 0 else 0.0
        fault = self.fault_rate > 0 and self._rng.random() < self.fault_rate
        if delay == 0.0 and not fault:
            return task
        rec = self.recorder

        def chaotic() -> object:
            if delay > 0.0:
                time.sleep(delay)
                if rec is not None and rec.enabled:
                    rec.count("chaos.delays_injected")
            if fault:
                if rec is not None and rec.enabled:
                    rec.count("chaos.faults_injected")
                raise ChaosFault("chaos-injected task fault")
            return task()

        return chaotic

    def close(self) -> None:
        self.inner.close()
