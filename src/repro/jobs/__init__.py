"""Batch simulation service: job specs, scheduling, caching, campaigns.

``repro.jobs`` turns the single-run engine into a batch service (see
``docs/batch.md``):

* :class:`JobSpec` / :class:`CircuitRef` — JSON-serializable,
  content-hashable description of one simulation job
  (:mod:`repro.jobs.spec`).
* :class:`JobScheduler` with pluggable backends — in-process serial and
  a crash-isolated process pool with per-job timeouts and bounded retry
  (:mod:`repro.jobs.scheduler`).
* :class:`ResultCache` — content-addressed result store keyed by the
  sha256 of the canonical spec (:mod:`repro.jobs.cache`).
* :class:`CampaignStore` — on-disk manifest + cache enabling
  checkpoint/resume (:mod:`repro.jobs.store`).
* campaign generators — Monte Carlo, PVT corners, parameter sweeps —
  and :func:`run_campaign` (:mod:`repro.jobs.campaign`).

Quick start::

    from repro.jobs import JobSpec, CircuitRef, monte_carlo, run_campaign

    base = JobSpec(circuit=CircuitRef(kind="registry", name="rectifier"))
    campaign = monte_carlo(base, n=16, seed=7, jitter=0.05)
    result = run_campaign(campaign, store="out/rectifier-mc",
                          backend="process", workers=4)
    print(result.summary())
"""

from repro.jobs.cache import ResultCache
from repro.jobs.campaign import (
    CORNERS,
    Campaign,
    CampaignResult,
    monte_carlo,
    param_sweep,
    pvt_corners,
    rollup_stats,
    run_campaign,
    single,
)
from repro.jobs.scheduler import (
    BACKENDS,
    JobOutcome,
    JobScheduler,
    ProcessPoolBackend,
    SerialBackend,
    make_backend,
)
from repro.jobs.spec import (
    CIRCUIT_KINDS,
    JOB_ANALYSES,
    CircuitRef,
    JobSpec,
    apply_params,
    jitterable_params,
)
from repro.jobs.store import JOB_STATUSES, MANIFEST_VERSION, CampaignStore
from repro.jobs.workers import (
    TELEMETRY_EVENT_TAIL,
    JobResult,
    deterministic_telemetry,
    execute_job,
)

__all__ = [
    "JobSpec",
    "CircuitRef",
    "JOB_ANALYSES",
    "CIRCUIT_KINDS",
    "jitterable_params",
    "apply_params",
    "JobResult",
    "execute_job",
    "deterministic_telemetry",
    "TELEMETRY_EVENT_TAIL",
    "ResultCache",
    "CampaignStore",
    "MANIFEST_VERSION",
    "JOB_STATUSES",
    "JobScheduler",
    "JobOutcome",
    "SerialBackend",
    "ProcessPoolBackend",
    "make_backend",
    "BACKENDS",
    "Campaign",
    "CampaignResult",
    "CORNERS",
    "monte_carlo",
    "pvt_corners",
    "param_sweep",
    "single",
    "rollup_stats",
    "run_campaign",
]
