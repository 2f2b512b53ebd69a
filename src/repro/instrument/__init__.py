"""Structured tracing, counters, exporters and live telemetry.

The observability substrate of the engine (see ``docs/observability.md``).
A run's own counts and ratios are not here: they are its ``stats``
(:class:`~repro.engine.transient.TransientStats`), with or without a
recorder.

* :class:`Recorder` / :class:`NullRecorder` — collecting vs inert
  instrumentation sinks; the process-global default is inert so
  instrumented code costs ~nothing when tracing is off.
* event vocabulary (``newton_solve``, ``lte_reject``, ``step_accept``,
  ``stage_run``, ``stage_task``, ``speculate``, ``dcop``, ``run``) in
  :mod:`repro.instrument.events`.
* exporters — JSONL event logs and Chrome ``trace_event`` files with one
  lane per pipeline thread (:mod:`repro.instrument.exporters`).
* live telemetry — :class:`Heartbeat` progress reporting
  (:mod:`repro.instrument.telemetry`), Prometheus text exposition and a
  stdlib ``/metrics`` endpoint (:mod:`repro.instrument.prometheus`).

Typical use::

    from repro import simulate
    from repro.instrument import Recorder, write_chrome_trace

    rec = Recorder()
    result = simulate(circuit, analysis="wavepipe", tstop=1e-6,
                      scheme="combined", threads=3, instrument=rec)
    print(result.stats.summary())
    write_chrome_trace(rec, "run.trace.json")   # open in Perfetto
"""

from repro.instrument.events import (
    CAMPAIGN_RUN,
    DCOP,
    JOB_RUN,
    LTE_REJECT,
    NEWTON_SOLVE,
    OUTCOME_ACCEPTED,
    OUTCOME_LTE_REJECT,
    OUTCOME_NEWTON_FAIL,
    OUTCOME_SPECULATIVE_HIT,
    OUTCOME_SPECULATIVE_WASTE,
    PHASE_ASSEMBLY,
    PHASE_BACKSOLVE,
    PHASE_DEVICE_EVAL,
    PHASE_FACTOR,
    QUEUE_WAIT,
    RESULT_UPLOAD,
    RUN,
    SERVICE_DEDUP,
    SERVICE_JOB,
    SERVICE_REQUEST,
    SERVICE_SOLVE,
    SPECULATE,
    STAGE_RUN,
    STAGE_TASK,
    STEP_ACCEPT,
    TIMESTEP,
    TraceEvent,
)
from repro.instrument.exporters import (
    chrome_trace_dict,
    read_jsonl,
    recorder_from_jsonl,
    write_chrome_trace,
    write_jsonl,
    write_trace,
)
from repro.instrument.prometheus import MetricsServer, serve_metrics, to_prometheus
from repro.instrument.spans import (
    SpanNode,
    SpanTree,
    aggregate_by_path,
    build_span_tree,
    outcome_counts,
    span_events,
)
from repro.instrument.recorder import (
    EVENTS_DROPPED,
    NULL_RECORDER,
    Histogram,
    NullRecorder,
    Recorder,
    get_recorder,
    resolve_recorder,
    set_recorder,
    use_recorder,
)
from repro.instrument.telemetry import (
    TENANT_PREFIX,
    Heartbeat,
    heartbeat_for,
    tenant_counter,
    tenant_rollups,
)
from repro.instrument.tracectx import (
    TraceContext,
    current_trace,
    use_trace,
)

__all__ = [
    "TraceEvent",
    "NEWTON_SOLVE",
    "LTE_REJECT",
    "STEP_ACCEPT",
    "STAGE_RUN",
    "STAGE_TASK",
    "SPECULATE",
    "DCOP",
    "RUN",
    "JOB_RUN",
    "CAMPAIGN_RUN",
    "TIMESTEP",
    "SERVICE_REQUEST",
    "SERVICE_JOB",
    "QUEUE_WAIT",
    "SERVICE_SOLVE",
    "RESULT_UPLOAD",
    "SERVICE_DEDUP",
    "PHASE_DEVICE_EVAL",
    "PHASE_ASSEMBLY",
    "PHASE_FACTOR",
    "PHASE_BACKSOLVE",
    "OUTCOME_ACCEPTED",
    "OUTCOME_LTE_REJECT",
    "OUTCOME_NEWTON_FAIL",
    "OUTCOME_SPECULATIVE_HIT",
    "OUTCOME_SPECULATIVE_WASTE",
    "SpanNode",
    "SpanTree",
    "span_events",
    "build_span_tree",
    "aggregate_by_path",
    "outcome_counts",
    "Recorder",
    "NullRecorder",
    "NULL_RECORDER",
    "Histogram",
    "get_recorder",
    "set_recorder",
    "use_recorder",
    "resolve_recorder",
    "chrome_trace_dict",
    "write_chrome_trace",
    "write_jsonl",
    "read_jsonl",
    "recorder_from_jsonl",
    "write_trace",
    "EVENTS_DROPPED",
    "Heartbeat",
    "heartbeat_for",
    "TENANT_PREFIX",
    "tenant_counter",
    "tenant_rollups",
    "TraceContext",
    "current_trace",
    "use_trace",
    "MetricsServer",
    "serve_metrics",
    "to_prometheus",
]
