"""Job scheduling: pluggable backends, timeouts, retries, crash recovery.

The :class:`JobScheduler` turns a list of :class:`~repro.jobs.spec.JobSpec`
into :class:`JobOutcome` records. It owns the *policy* — result-cache
consultation, bounded retry with exponential backoff, instrumentation —
and delegates the *mechanism* of running jobs to a backend:

* :class:`SerialBackend` executes jobs in-process, in order. The
  deterministic reference, and the fastest option for tiny campaigns
  (no process start-up cost).
* :class:`ProcessPoolBackend` runs up to ``workers`` jobs concurrently,
  **one fresh process per job**. Unlike a shared pool
  (``concurrent.futures`` breaks the whole pool when a worker dies),
  process-per-job gives hard isolation for free: a crashing or hanging
  worker fails only its own job. Per-job wall-clock timeouts are
  enforced by the parent (the worker is terminated), and because jobs
  run in separate interpreters the GIL never serialises them — this is
  the axis of parallelism orthogonal to WavePipe's intra-run pipelining.

Workers receive specs as JSON-safe dicts and reply over a pipe (see
:mod:`repro.jobs.workers`), so nothing about a circuit or engine object
needs to survive pickling.
"""

from __future__ import annotations

import multiprocessing
import time
from collections import deque
from dataclasses import dataclass
from multiprocessing import connection as mp_connection

from repro.errors import SimulationError
from repro.instrument.events import JOB_RUN
from repro.instrument.recorder import resolve_recorder
from repro.jobs.spec import JobSpec
from repro.jobs.workers import JobResult, run_inline, worker_main

#: Upper bound on one supervisor wait; keeps timeout enforcement and new
#: job dispatch responsive even when no pipe becomes ready.
_POLL_INTERVAL = 0.2

#: After terminating a timed-out worker, how long to wait for the final
#: message its SIGTERM handler sends (the partial telemetry snapshot).
#: Also bounds the post-terminate join: the handler only runs between
#: Python bytecodes, so a worker stuck in a native call (LAPACK, a
#: blocking pipe write) never sees SIGTERM and must be SIGKILLed.
_TERMINATE_GRACE = 0.5

#: Backend registry keys accepted by :func:`make_backend`.
BACKENDS = ("serial", "process", "ensemble")


@dataclass
class JobOutcome:
    """Final (or latest-attempt) state of one scheduled job."""

    spec: JobSpec
    spec_hash: str
    status: str  # done | cached | failed | timeout | crashed
    result: JobResult | None = None
    error: str | None = None
    attempts: int = 0
    elapsed: float = 0.0
    #: Portable recorder snapshot of the job's own solver work, when the
    #: scheduler ran under telemetry: live worker snapshots for executed
    #: jobs (including failures/timeouts), the cached deterministic
    #: rollup for cache hits, None otherwise.
    telemetry: dict | None = None

    @property
    def ok(self) -> bool:
        return self.status in ("done", "cached")


class SerialBackend:
    """In-process, in-order execution (no timeout enforcement)."""

    kind = "serial"
    workers = 1

    def run(
        self, indexed_specs, timeout, emit, telemetry: bool = False, trace=None
    ) -> None:
        for index, spec in indexed_specs:
            run_inline(index, spec, emit, telemetry, (trace or {}).get(index))

    def close(self) -> None:
        pass


def _reap(process) -> None:
    """Join a terminated worker, escalating to SIGKILL when needed.

    The worker's SIGTERM handler only runs between Python bytecodes, so a
    child stuck in a long native call (scipy/LAPACK factorization) or
    blocked mid ``conn.send`` never exits on terminate(); an unbounded
    join here would hang the supervisor on the very timeout it is
    enforcing.
    """
    process.join(_TERMINATE_GRACE)
    if process.is_alive():
        process.kill()
        process.join()


def _race_won_result(message) -> JobResult | None:
    """The finished result inside a grace-poll message, if any.

    A job that completes just as its deadline expires has a full
    ``("ok", ...)`` reply in the pipe when the timeout fires; settling it
    as done keeps the work instead of re-running it on retry.
    """
    if message is None or len(message) < 4 or message[0] != "ok":
        return None
    try:
        result = JobResult.from_dict(message[1])
    except Exception:
        return None
    result.elapsed = message[2]
    return result


class ProcessPoolBackend:
    """Concurrent process-per-job execution with per-job timeouts.

    Args:
        workers: max concurrently running worker processes.
        start_method: multiprocessing start method; defaults to ``fork``
            where available (fast, shares the warmed-up interpreter) and
            falls back to ``spawn``.
    """

    kind = "process"

    def __init__(self, workers: int, start_method: str | None = None):
        if workers < 1:
            raise SimulationError(
                f"ProcessPoolBackend needs workers >= 1, got {workers}"
            )
        self.workers = workers
        methods = multiprocessing.get_all_start_methods()
        if start_method is None:
            start_method = "fork" if "fork" in methods else "spawn"
        elif start_method not in methods:
            raise SimulationError(
                f"start method {start_method!r} unavailable (have {methods})"
            )
        self.start_method = start_method
        self._ctx = multiprocessing.get_context(start_method)

    def run(
        self, indexed_specs, timeout, emit, telemetry: bool = False, trace=None
    ) -> None:
        pending = deque(indexed_specs)
        running: dict = {}  # reader conn -> [index, process, started]
        try:
            while pending or running:
                while pending and len(running) < self.workers:
                    index, spec = pending.popleft()
                    reader, writer = self._ctx.Pipe(duplex=False)
                    process = self._ctx.Process(
                        target=worker_main,
                        args=(
                            writer,
                            spec.to_dict(),
                            telemetry,
                            (trace or {}).get(index),
                        ),
                        daemon=True,
                    )
                    process.start()
                    writer.close()  # parent keeps only the read end
                    running[reader] = [index, process, time.monotonic()]

                wait_for = _POLL_INTERVAL
                if timeout is not None and running:
                    next_deadline = min(
                        started + timeout for _, _, started in running.values()
                    )
                    wait_for = min(wait_for, max(next_deadline - time.monotonic(), 0.0))
                for reader in mp_connection.wait(list(running), timeout=wait_for):
                    index, process, started = running.pop(reader)
                    self._finish(reader, index, process, started, emit)

                if timeout is not None:
                    now = time.monotonic()
                    expired = [
                        reader
                        for reader, (_, _, started) in running.items()
                        if now - started > timeout
                    ]
                    for reader in expired:
                        index, process, started = running.pop(reader)
                        process.terminate()
                        # The worker's SIGTERM handler ships one last
                        # ("error", ..., snapshot) message — unless the
                        # job finished just as the deadline hit, in which
                        # case a complete ("ok", ...) is already in the
                        # pipe. Any malformed/truncated frame reads as no
                        # message at all.
                        message = None
                        try:
                            if reader.poll(_TERMINATE_GRACE):
                                message = reader.recv()
                        except Exception:
                            message = None
                        _reap(process)
                        reader.close()
                        result = _race_won_result(message)
                        if result is not None:
                            emit(index, "ok", result, result.elapsed, message[3])
                            continue
                        snapshot = (
                            message[3]
                            if message is not None and len(message) >= 4
                            else None
                        )
                        emit(
                            index,
                            "timeout",
                            f"job exceeded {timeout:g}s wall-clock timeout",
                            now - started,
                            snapshot,
                        )
        finally:
            # A raised callback or KeyboardInterrupt must not leak workers.
            for reader, (_, process, _) in running.items():
                process.terminate()
                _reap(process)
                reader.close()

    @staticmethod
    def _finish(reader, index, process, started, emit) -> None:
        """Collect one finished worker: clean result, error, or death.

        Any failure to read a well-formed message — EOF, a torn pipe, a
        partial frame left by a signal-interrupted send (unpickling /
        struct errors), a wrong-shape tuple — counts as a crash of *this*
        job only; it must never abort the whole scheduler run.
        """
        try:
            status, payload, elapsed, snapshot = reader.recv()
        except Exception:
            if process.is_alive():  # sent garbage but didn't exit
                process.terminate()
            _reap(process)
            emit(
                index,
                "crash",
                f"worker process died (exit code {process.exitcode})",
                time.monotonic() - started,
            )
            return
        finally:
            reader.close()
        process.join()
        if status == "ok":
            result = JobResult.from_dict(payload)
            result.elapsed = elapsed
            emit(index, "ok", result, elapsed, snapshot)
        else:
            emit(index, "error", payload, elapsed, snapshot)

    def close(self) -> None:
        pass


def make_backend(kind, workers: int = 1):
    """Backend factory: a :data:`BACKENDS` name or a ready instance."""
    if not isinstance(kind, str):
        return kind
    if kind == "serial":
        return SerialBackend()
    if kind == "process":
        return ProcessPoolBackend(workers)
    if kind == "ensemble":
        # Imported lazily: the backend pulls in the whole ensemble engine.
        from repro.jobs.ensemble import EnsembleBackend

        return EnsembleBackend()
    raise SimulationError(f"unknown backend {kind!r}; expected one of {BACKENDS}")


#: emit() statuses -> outcome statuses + failure counter names.
_FAILURE_STATUS = {
    "error": ("failed", "jobs.failed"),
    "timeout": ("timeout", "jobs.timeouts"),
    "crash": ("crashed", "jobs.crashes"),
}


class JobScheduler:
    """Cache-aware, retrying front end over a job backend.

    Args:
        backend: a :data:`BACKENDS` name or backend instance.
        workers: worker count used when *backend* is a name.
        cache: optional :class:`~repro.jobs.cache.ResultCache`; hits skip
            execution entirely.
        timeout: per-job wall-clock limit in seconds (process backend
            only; the serial backend cannot preempt a running solve).
        retries: additional attempts granted to failed/timed-out/crashed
            jobs (0 disables retry).
        backoff: base delay in seconds before retry round *k*, growing
            as ``backoff * 2**(k-1)``.
        instrument: optional Recorder for ``jobs.*`` counters and
            per-job :data:`~repro.instrument.events.JOB_RUN` events.
    """

    def __init__(
        self,
        backend="serial",
        workers: int = 1,
        cache=None,
        timeout: float | None = None,
        retries: int = 1,
        backoff: float = 0.0,
        instrument=None,
    ):
        if retries < 0:
            raise SimulationError("retries must be >= 0")
        if timeout is not None and timeout <= 0:
            raise SimulationError("timeout must be positive (or None)")
        self.backend = make_backend(backend, workers)
        self.cache = cache
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.instrument = instrument

    def run(
        self, specs: list[JobSpec], on_outcome=None, trace=None
    ) -> list[JobOutcome]:
        """Execute *specs*; returns one outcome per spec, in order.

        *on_outcome* is called with each :class:`JobOutcome` as it is
        (re)determined — including failures that will still be retried —
        which is the hook campaign checkpointing uses to rewrite its
        manifest incrementally.

        *trace* maps spec content hashes to trace-context dicts (see
        :mod:`repro.instrument.tracectx`). A traced job's ``job_run``
        span carries the trace id and tenant, and the worker's span
        snapshot is re-parented *under* that span at merge — which is
        what lets a stitched service trace show worker solve internals
        as children of the request that caused them.
        """
        rec = resolve_recorder(self.instrument)
        outcomes: list[JobOutcome | None] = [None] * len(specs)
        attempts = [0] * len(specs)
        trace_by_index: dict[int, dict] = {}

        def settle(index: int, outcome: JobOutcome, snapshot=None) -> None:
            outcomes[index] = outcome
            if rec.enabled:
                # A closed span rather than a bare event: it nests under
                # the campaign_run span (same thread) and carries the
                # job's serial work as its cost, which is what the
                # explain critical-path pass ranks jobs by.
                elapsed = float(outcome.elapsed or 0.0)
                stats = outcome.result.stats if outcome.result is not None else {}
                end = rec.clock()
                extra = {}
                ctx = trace_by_index.get(index)
                if ctx:
                    extra = {
                        "trace_id": ctx.get("trace_id"),
                        "tenant": ctx.get("tenant", "default"),
                    }
                sid = rec.emit_span(
                    JOB_RUN,
                    ts=end - elapsed,
                    dur=elapsed,
                    outcome=outcome.status,
                    cost=float((stats or {}).get("work_units", 0.0)),
                    label=outcome.spec.label,
                    status=outcome.status,
                    attempts=outcome.attempts,
                    hash=outcome.spec_hash[:12],
                    **extra,
                )
                # The worker's solver spans land *inside* the job_run
                # interval: the span was emitted to end now with the
                # measured elapsed, and every worker event happened
                # within that window, so rebasing the tail to end at the
                # same instant keeps temporal nesting valid.
                if snapshot:
                    rec.merge(snapshot, parent=sid, at=end)
            if on_outcome is not None:
                on_outcome(outcome)

        to_run: list[int] = []
        for index, spec in enumerate(specs):
            spec_hash = spec.content_hash()
            ctx = (trace or {}).get(spec_hash)
            if ctx:
                trace_by_index[index] = ctx
            cached = self.cache.get(spec_hash) if self.cache is not None else None
            if cached is not None:
                rec.count("jobs.cache_hits")
                # A cached result carries the deterministic telemetry of
                # the run that produced it; merging it keeps campaign
                # rollups identical between fresh and resumed runs.
                if rec.enabled and cached.telemetry:
                    rec.merge(cached.telemetry)
                settle(
                    index,
                    JobOutcome(
                        spec,
                        spec_hash,
                        "cached",
                        result=cached,
                        telemetry=cached.telemetry,
                    ),
                )
            else:
                rec.count("jobs.cache_misses")
                to_run.append(index)

        rec.count("jobs.submitted", len(to_run))
        round_index = 0
        while to_run and round_index <= self.retries:
            if round_index > 0:
                rec.count("jobs.retries", len(to_run))
                delay = self.backoff * (2 ** (round_index - 1))
                if delay > 0:
                    time.sleep(delay)
            failed_this_round: list[int] = []

            def emit(
                index: int, status: str, payload, elapsed: float, snapshot=None
            ) -> None:
                spec = specs[index]
                attempts[index] += 1
                # The worker's solver work is folded into the campaign
                # recorder inside settle() — after the job_run span
                # exists, so the worker tree re-parents under it —
                # whatever the outcome: failed and timed-out jobs burned
                # real Newton iterations too.
                if status == "ok":
                    result: JobResult = payload
                    if self.cache is not None:
                        self.cache.put(result)
                    rec.count("jobs.completed")
                    settle(
                        index,
                        JobOutcome(
                            spec,
                            result.spec_hash,
                            "done",
                            result=result,
                            attempts=attempts[index],
                            elapsed=elapsed,
                            telemetry=snapshot,
                        ),
                        snapshot=snapshot,
                    )
                    return
                outcome_status, counter = _FAILURE_STATUS[status]
                rec.count(counter)
                failed_this_round.append(index)
                settle(
                    index,
                    JobOutcome(
                        spec,
                        spec.content_hash(),
                        outcome_status,
                        error=str(payload),
                        attempts=attempts[index],
                        elapsed=elapsed,
                        telemetry=snapshot,
                    ),
                    snapshot=snapshot,
                )

            run_kwargs: dict = {"telemetry": rec.enabled}
            # The trace kwarg is only passed when there is something to
            # propagate, so third-party backends with the pre-trace run()
            # signature keep working for untraced schedules.
            run_trace = {
                index: trace_by_index[index]
                for index in to_run
                if index in trace_by_index
            }
            if run_trace:
                run_kwargs["trace"] = run_trace
            self.backend.run(
                [(index, specs[index]) for index in to_run],
                self.timeout,
                emit,
                **run_kwargs,
            )
            # Jobs the backend never reported (defensive): mark failed.
            for index in to_run:
                if attempts[index] == 0 and outcomes[index] is None:
                    rec.count("jobs.failed")
                    settle(
                        index,
                        JobOutcome(
                            specs[index],
                            specs[index].content_hash(),
                            "failed",
                            error="backend returned no outcome for this job",
                        ),
                    )
            to_run = failed_this_round
            round_index += 1
        return outcomes  # type: ignore[return-value]

    def close(self) -> None:
        self.backend.close()

    def __enter__(self) -> "JobScheduler":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
