"""Job execution: build the circuit, run the analysis, package the result.

:func:`execute_job` is the single execution path shared by every backend —
the serial backend calls it inline, the process-pool backend calls it
inside a child process via :func:`worker_main`. Workers exchange only
JSON-safe dicts over their pipe, never live engine objects, so the parent
survives any child behaviour: a clean result, a raised exception (sent
back as a traceback string), or an outright process death (detected by
the backend as a closed pipe / nonzero exit code).

:class:`JobResult` is deliberately split into a *deterministic* payload
(waveform samples on the accepted grid plus counting stats — what
:meth:`JobResult.to_dict` emits and the result cache stores, byte-stable
across reruns) and runtime-only fields (``elapsed``, ``cached``) that
never reach disk.
"""

from __future__ import annotations

import contextlib
import signal
import time
import traceback
from dataclasses import dataclass, field

from repro.errors import SimulationError
from repro.instrument import Recorder, use_recorder
from repro.instrument.tracectx import TraceContext, use_trace
from repro.jobs.spec import JobSpec, apply_params
from repro.utils.options import SimOptions

#: Test/fault-injection hook: when set, called with the JobSpec at the
#: start of every execution (including inside worker processes, which see
#: it under the fork start method). Lets tests simulate worker crashes
#: and hangs without patching engine internals.
FAULT_HOOK = None

#: Ring-buffer depth of a telemetry worker's event log: post-mortems need
#: the *last* events before a crash or timeout, not a whole-run trace.
TELEMETRY_EVENT_TAIL = 64


@dataclass
class JobResult:
    """Outcome payload of one completed job.

    ``to_dict()``/``from_dict()`` carry only the deterministic part;
    ``elapsed`` (wall seconds) and ``cached`` (served from the result
    cache) are runtime annotations for scheduling and metrics rollups.
    """

    spec_hash: str
    label: str
    analysis: str
    final_time: float
    times: list[float]
    signals: dict[str, list[float]]
    stats: dict = field(default_factory=dict)
    #: Deterministic recorder rollup of the job's own solver work
    #: (counters + histogram summaries, no wall-clock data), present only
    #: when the job ran under telemetry. Cached alongside the waveforms so
    #: a resumed campaign aggregates the same totals as a fresh one.
    telemetry: dict | None = None
    elapsed: float = 0.0
    cached: bool = False

    def to_dict(self) -> dict:
        out = {
            "spec_hash": self.spec_hash,
            "label": self.label,
            "analysis": self.analysis,
            "final_time": self.final_time,
            "times": self.times,
            "signals": self.signals,
            "stats": self.stats,
        }
        if self.telemetry is not None:
            out["telemetry"] = self.telemetry
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "JobResult":
        return cls(
            spec_hash=data["spec_hash"],
            label=data.get("label", ""),
            analysis=data.get("analysis", "transient"),
            final_time=data["final_time"],
            times=list(data["times"]),
            signals={k: list(v) for k, v in data["signals"].items()},
            stats=dict(data.get("stats") or {}),
            telemetry=data.get("telemetry"),
        )


def deterministic_telemetry(recorder) -> dict | None:
    """The cacheable slice of a recorder's state, or None when inert.

    Counters and histogram summaries are pure counts / simulated-time
    quantities — byte-stable across reruns — so they may ride inside the
    deterministic result payload. Event records carry wall-clock
    timestamps and stay out; they travel separately (runtime-only) as the
    worker's ``events_tail`` snapshot.
    """
    if recorder is None or not getattr(recorder, "enabled", False):
        return None
    snap = recorder.snapshot()
    # Stringify histogram bucket keys so the payload equals its own JSON
    # roundtrip — cached results must replay byte-identical telemetry.
    histograms = {
        name: {
            **hist,
            "buckets": {str(k): v for k, v in hist.get("buckets", {}).items()},
        }
        for name, hist in snap["histograms"].items()
    }
    out = {
        "counters": snap["counters"],
        "histograms": histograms,
        "dropped_events": snap.get("dropped_events", 0),
    }
    # Span-path aggregates are pure counts + virtual work units, so they
    # are as cacheable as the counters; absent when the job traced no
    # spans to keep legacy payloads byte-identical.
    if snap.get("span_totals"):
        out["span_totals"] = snap["span_totals"]
    return out


def job_recorder(telemetry: bool) -> Recorder | None:
    """Per-job telemetry recorder: a tail ring buffer, or None when off."""
    if not telemetry:
        return None
    return Recorder(max_events=TELEMETRY_EVENT_TAIL, evict="tail")


def job_snapshot(recorder: Recorder | None) -> dict | None:
    """The recorder's portable snapshot (None with telemetry off)."""
    if recorder is None:
        return None
    return recorder.snapshot(events_tail=TELEMETRY_EVENT_TAIL)


def recorder_scope(recorder):
    """Scope running the engine under *recorder*; inert when it is None."""
    if recorder is None:
        return contextlib.nullcontext()
    return use_recorder(recorder)


def resolve_job(spec: JobSpec):
    """Spec-resolution half of a job: ``(built, tstop, tstep, options)``.

    *built* is the spec's circuit reference, built but without the spec's
    ``params`` applied — the lockstep backend resolves one spec per group
    and applies each member's overrides to the same base circuit.
    """
    built = spec.circuit.build()
    tstop = spec.tstop if spec.tstop is not None else built.tstop
    if tstop is None or tstop <= 0:
        raise SimulationError(
            f"job {spec.label or spec.circuit.describe!r} has no tstop (neither "
            "the spec nor the circuit reference provides a transient window)"
        )
    tstep = spec.tstep if spec.tstep is not None else built.tstep
    options = built.options or SimOptions()
    if spec.options:
        options = options.replace(**spec.options)
    return built, tstop, tstep, options


def package_job(
    spec: JobSpec, built, result, stats: dict, telemetry, elapsed: float
) -> JobResult:
    """Result-packaging half of a job: resolve the recorded traces of
    *result* (a transient result, or one variant of an ensemble's) and
    build the payload. Raises when a requested trace does not exist."""
    waveforms = result.waveforms
    names = list(spec.signals) if spec.signals is not None else None
    if names is None and built.signals is not None:
        names = list(built.signals)
    if names is None:
        names = [n for n in waveforms.names if n.startswith("v")]
    missing = [n for n in names if n not in waveforms]
    if missing:
        raise SimulationError(
            f"job {spec.label!r}: no trace(s) named {missing} in the result"
        )
    return JobResult(
        spec_hash=spec.content_hash(),
        label=spec.label,
        analysis=spec.analysis,
        final_time=float(result.final_time),
        times=[float(t) for t in waveforms.times],
        signals={n: [float(v) for v in waveforms[n].values] for n in names},
        stats=stats,
        telemetry=telemetry,
        elapsed=elapsed,
    )


def execute_job(spec: JobSpec, instrument=None) -> JobResult:
    """Run one job in the current process and return its result.

    With *instrument* (a recorder) the engine runs under it via
    :func:`use_recorder` — spec options travel as JSON and cannot carry a
    live recorder — and the result gains its deterministic telemetry
    rollup.

    Raises whatever the engine raises (:class:`~repro.errors.ReproError`
    subclasses for simulation failures); the schedulers translate those
    into failed outcomes.
    """
    from repro.api import simulate

    if FAULT_HOOK is not None:
        FAULT_HOOK(spec)
    t0 = time.perf_counter()
    built, tstop, tstep, options = resolve_job(spec)
    circuit = apply_params(built.circuit, spec.params)
    with recorder_scope(instrument):
        result = simulate(
            circuit,
            analysis=spec.analysis,
            tstop=tstop,
            tstep=tstep,
            options=options,
            threads=spec.threads,
            scheme=spec.scheme,
        )
    return package_job(
        spec,
        built,
        result,
        result.stats.counts(),
        deterministic_telemetry(instrument),
        time.perf_counter() - t0,
    )


def run_inline(index: int, spec: JobSpec, emit, telemetry: bool, trace=None) -> None:
    """Run one job in this process and emit its outcome.

    The serial backend's per-job body, and the path the lockstep backend
    takes for a job it cannot batch. *trace* is the job's trace-context
    dict, if any (bound as in :func:`worker_main`).
    """
    recorder = job_recorder(telemetry)
    t0 = time.perf_counter()
    try:
        with use_trace(TraceContext.from_dict(trace)):
            result = execute_job(spec, instrument=recorder)
    except Exception as exc:
        emit(index, "error", f"{type(exc).__name__}: {exc}",
             time.perf_counter() - t0, job_snapshot(recorder))
    else:
        emit(index, "ok", result, result.elapsed, job_snapshot(recorder))


class _Terminated(BaseException):
    """Raised by the worker's SIGTERM handler so the normal except path
    runs and ships a final telemetry snapshot before the process dies."""


def _on_sigterm(signum, frame):
    raise _Terminated(f"worker received signal {signum}")


def worker_main(
    conn, spec_dict: dict, telemetry: bool = False, trace=None
) -> None:
    """Child-process entry: run one job, ship the outcome over *conn*.

    Sends ``("ok", result_dict, elapsed, snapshot)`` or ``("error",
    traceback_text, elapsed, snapshot)``; *snapshot* is the worker
    recorder's portable snapshot (None with telemetry off). The snapshot
    rides on *every* outcome — including failures and the SIGTERM a
    parent-side timeout delivers — so the campaign rollup still sees the
    partial solver work of jobs that never finished. Anything else the
    parent observes (EOF, nonzero exit) means the worker died mid-job —
    which fails that job only.

    *trace* is the claimed job's trace-context dict, if any; it is bound
    as the ambient :func:`~repro.instrument.tracectx.current_trace` for
    the duration of the job so in-worker layers (fault hooks, future
    engine attribution) can see which request they are working for. It
    never enters the result payload — cached bytes stay identical no
    matter who asked.
    """
    recorder = job_recorder(telemetry)
    t0 = time.perf_counter()
    try:
        signal.signal(signal.SIGTERM, _on_sigterm)
    except (ValueError, OSError):  # non-main thread / exotic platform
        pass
    send_in_flight = False
    try:
        spec = JobSpec.from_dict(spec_dict)
        with use_trace(TraceContext.from_dict(trace)):
            result = execute_job(spec, instrument=recorder)
        message = ("ok", result.to_dict(), result.elapsed, job_snapshot(recorder))
        send_in_flight = True
        conn.send(message)
        send_in_flight = False
    except BaseException:
        # If SIGTERM interrupted a send mid-frame, the pipe may already
        # hold a partial message; writing a second one would corrupt the
        # stream and crash the parent's recv. Stay silent in that case —
        # the parent treats a truncated/absent reply as a worker death.
        if not send_in_flight:
            try:
                conn.send(
                    (
                        "error",
                        traceback.format_exc(),
                        time.perf_counter() - t0,
                        job_snapshot(recorder),
                    )
                )
            except (BrokenPipeError, OSError):  # parent gone: nothing to report
                pass
    finally:
        conn.close()
