"""Trace event vocabulary and the event record itself.

Every instrumented layer emits :class:`TraceEvent` objects through a
:class:`~repro.instrument.recorder.Recorder`. The schema is deliberately
small and flat so the exporters (JSONL, Chrome ``trace_event``) are
direct translations:

* ``name`` — one of the constants below (free-form names are allowed,
  these are the ones the stock engine emits).
* ``ts`` — wall-clock start in seconds, relative to the recorder's epoch
  (``Recorder.clock()``).
* ``dur`` — wall-clock duration in seconds, or None for instant events.
* ``lane`` — logical pipeline lane: 0 is the scheduler/main loop, lane
  ``k >= 1`` is the k-th task slot of a stage (one Chrome trace row per
  lane, which is what makes stage occupancy and bubbles visible).
* ``t_sim`` — simulated time the event concerns, or None.
* ``attrs`` — free-form JSON-safe details (iteration counts, verdicts...).
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: One Newton solve finished (converged or not). Emitted by
#: :func:`repro.solver.newton.newton_solve`.
NEWTON_SOLVE = "newton_solve"

#: A converged candidate point failed the truncation-error test.
LTE_REJECT = "lte_reject"

#: A point entered the accepted history.
STEP_ACCEPT = "step_accept"

#: One pipeline stage ran (scheduler's view: width, cost, progress).
STAGE_RUN = "stage_run"

#: One task of a pipeline stage ran on its lane (executor's view).
STAGE_TASK = "stage_task"

#: A speculative (forward-pipelined) point was resolved: corrective
#: phase outcome, hit/miss classification.
SPECULATE = "speculate"

#: DC operating point solve.
DCOP = "dcop"

#: One whole transient run (sequential or pipelined).
RUN = "run"

#: ChaosExecutor scrambled one stage (attrs carry the permutation).
CHAOS_STAGE = "chaos_stage"

#: The differential oracle finished one fuzz trial (pass/fail, worst
#: deviation). Emitted by :func:`repro.verify.oracle.verify_circuit`.
VERIFY_TRIAL = "verify_trial"

#: One batch job reached an outcome (attrs: label, status, attempts,
#: hash). Emitted by :class:`repro.jobs.scheduler.JobScheduler`.
JOB_RUN = "job_run"

#: One whole batch campaign finished (attrs: name, jobs, status counts).
#: Emitted by :func:`repro.jobs.campaign.run_campaign`.
CAMPAIGN_RUN = "campaign_run"

#: One attempted timepoint in the sequential transient loop (span).
TIMESTEP = "timestep"

#: One whole WTM (waveform-transmission) partitioned transient (span).
#: Emitted by :func:`repro.partition.coordinator.run_wtm`.
WTM_RUN = "wtm_run"

#: One WTM time window iterated to convergence (span, child of wtm_run).
WTM_WINDOW = "wtm_window"

#: One Gauss-Jacobi/Seidel outer iteration (span, child of wtm_window).
WTM_OUTER_ITER = "wtm_outer_iter"

#: One per-partition transient solve inside an outer iteration (span,
#: child of wtm_outer_iter; ``attrs["partition"]`` carries the partition
#: index — lanes stay at 0 because nested engine spans inherit them).
WTM_PARTITION = "wtm_partition"

#: Synthesized service-tier spans. These are *stitched* rather than
#: recorded live: :func:`repro.service.trace.build_campaign_trace` builds
#: them from queue-entry timestamps and per-node trace records, so a
#: single tree spans every process and farm node a campaign touched.
#: One submitting request (one trace id) — the root of a service trace.
SERVICE_REQUEST = "service_request"
#: One queued job's end-to-end life under its request (enqueue→settle).
SERVICE_JOB = "service_job"
#: Time a job sat pending in the queue before a node claimed it.
QUEUE_WAIT = "queue_wait"
#: The claimed job executing on a farm node (the worker span snapshot is
#: re-parented under this span at stitch time).
SERVICE_SOLVE = "service_solve"
#: Settling the finished job back into the queue/result store.
RESULT_UPLOAD = "result_upload"
#: A dedup-served duplicate submission: zero-cost child of the job that
#: paid for the miss, attributed to the duplicate's own trace id/tenant.
SERVICE_DEDUP = "service_dedup"

#: Synthesized solver-phase spans nested inside a ``newton_solve`` span.
#: Their costs come from the virtual-clock work model (see
#: :func:`repro.solver.newton.iteration_work`), laid back-to-back inside
#: the parent span's wall interval, so they are deterministic quantities
#: drawn on a wall-clock canvas.
PHASE_DEVICE_EVAL = "device_eval"
PHASE_ASSEMBLY = "assembly"
PHASE_FACTOR = "factor"
PHASE_BACKSOLVE = "backsolve"

#: Outcome tags a span may carry in ``attrs["outcome"]``. Every candidate
#: timepoint span ends in exactly one of these, which is what lets
#: ``repro explain`` classify 100% of rejected steps by cause.
OUTCOME_ACCEPTED = "accepted"
OUTCOME_LTE_REJECT = "lte_reject"
OUTCOME_NEWTON_FAIL = "newton_fail"
OUTCOME_SPECULATIVE_HIT = "speculative_hit"
OUTCOME_SPECULATIVE_WASTE = "speculative_waste"


@dataclass
class TraceEvent:
    """One structured trace record (see module docstring for the schema)."""

    name: str
    ts: float
    dur: float | None = None
    lane: int = 0
    t_sim: float | None = None
    attrs: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """Flat JSON-safe dict (JSONL exporter's row format)."""
        row = {"name": self.name, "ts": self.ts, "lane": self.lane}
        if self.dur is not None:
            row["dur"] = self.dur
        if self.t_sim is not None:
            row["t_sim"] = self.t_sim
        if self.attrs:
            row["attrs"] = self.attrs
        return row
