"""Ensemble scheduler backend: batch same-topology jobs into one solve.

Monte Carlo and PVT-corner campaigns produce many jobs that differ only
in component-parameter overrides — exactly the shape the vectorized
ensemble engine (:mod:`repro.engine.ensemble`) consumes. This backend
groups transient specs whose canonical form (minus ``params``) matches,
runs each group as one K-variant lockstep simulation, and unpacks the
result into per-member :class:`~repro.jobs.workers.JobResult` records
that mirror :func:`~repro.jobs.workers.execute_job`'s payload: same
signal resolution, same stat fields, and — critically — each member
keeps its **own** content hash, so the result cache stays addressed per
variant and resumed campaigns hit it per job.

Cost accounting: the batched solve's cost counters (``work_units``,
``lu_*``, ``bypass_fallbacks``) are apportioned across members so a
campaign rollup sums back to the ensemble's true cost — integer counters
by an exact largest-remainder split, float work as an equal share. The
grid-level counts (accepted/rejected points, Newton iterations) describe
the one shared adaptive grid and are reported identically on every
member. The group's telemetry snapshot rides on the first member only,
so campaign-recorder merges count each batch exactly once.

Singleton groups and non-transient specs fall back to
:func:`~repro.jobs.workers.execute_job` unchanged; so does every member
of a group whose batched solve fails for any reason (unsupported bank,
diverging variant), preserving per-job failure isolation. Like the
serial backend, execution is in-process: per-job timeouts are not
enforced.
"""

from __future__ import annotations

import json
import time

from repro.engine.transient import TransientStats
from repro.errors import SimulationError
from repro.jobs.spec import JobSpec, apply_params
from repro.jobs.workers import (
    deterministic_telemetry,
    job_recorder,
    job_snapshot,
    package_job,
    recorder_scope,
    resolve_job,
    run_inline,
)

#: Grid-level counts every member shares verbatim (one Newton history,
#: one grid); the other persisted counts are costs, apportioned.
_SHARED_FIELDS = (
    "accepted_points",
    "rejected_points",
    "newton_failures",
    "newton_iterations",
)


def group_key(spec: JobSpec) -> str:
    """Batching key: the canonical spec with the jitter channel removed.

    Two specs with equal keys are the same simulation except for
    component-parameter overrides — same circuit ref, window, options and
    recorded signals — which is precisely what the ensemble engine
    requires (topology identity is still re-verified at compile time).
    """
    canonical = spec.canonical_dict()
    del canonical["params"]
    return json.dumps(canonical, sort_keys=True, separators=(",", ":"))


def _apportion(total: int, sims: int, k: int) -> int:
    """Member *k*'s share of an integer counter (sums exactly to *total*)."""
    share, remainder = divmod(int(total), sims)
    return share + (1 if k < remainder else 0)


def _member_counts(stats: TransientStats, sims: int, k: int) -> dict:
    """Member *k*'s persisted counts of a *sims*-variant lockstep run."""
    out = {}
    for name, total in stats.counts().items():
        if name in _SHARED_FIELDS:
            out[name] = total
        elif isinstance(total, float):
            out[name] = total / sims
        else:
            out[name] = _apportion(total, sims, k)
    return out


class EnsembleBackend:
    """In-process backend that batches same-topology jobs per solve.

    Args:
        max_group: cap on variants per batched solve; larger groups are
            split into consecutive chunks (memory for the ``(n, K)``
            state and K factorisations grows linearly in K).
    """

    kind = "ensemble"
    workers = 1

    def __init__(self, max_group: int = 64):
        if max_group < 1:
            raise ValueError(f"max_group must be >= 1, got {max_group}")
        self.max_group = max_group

    def run(
        self, indexed_specs, timeout, emit, telemetry: bool = False, trace=None
    ) -> None:
        # trace contexts are bound for jobs that run alone only: a
        # lockstep group mixes jobs from many requests.
        trace = trace or {}
        groups: dict[str, list[tuple[int, JobSpec]]] = {}
        order: list[str] = []
        for index, spec in indexed_specs:
            if spec.analysis != "transient":
                key = f"!single:{index}"  # never batches
            else:
                key = group_key(spec)
            if key not in groups:
                groups[key] = []
                order.append(key)
            groups[key].append((index, spec))

        for key in order:
            members = groups[key]
            while members:
                chunk, members = members[: self.max_group], members[self.max_group :]
                if len(chunk) < 2 or not self._run_group(chunk, emit, telemetry):
                    for index, spec in chunk:
                        run_inline(index, spec, emit, telemetry, trace.get(index))

    def _run_group(self, chunk, emit, telemetry: bool) -> bool:
        """One batched solve for *chunk*; False requests per-job fallback.

        Nothing is emitted unless the whole group succeeds, so the
        fallback path re-runs every member with clean slate semantics.
        """
        from repro.engine.ensemble import run_ensemble_transient
        from repro.jobs.workers import FAULT_HOOK as fault_hook

        specs = [spec for _, spec in chunk]
        recorder = job_recorder(telemetry)
        t0 = time.perf_counter()
        try:
            if fault_hook is not None:
                for spec in specs:
                    fault_hook(spec)
            # a spec without a window raises here: surfaced, like any
            # other failure, through the per-job fallback
            built, tstop, tstep, options = resolve_job(specs[0])
            circuits = [apply_params(built.circuit, spec.params) for spec in specs]
            if recorder is not None:
                recorder.count("ensemble.batches")
            with recorder_scope(recorder):
                result = run_ensemble_transient(
                    circuits, tstop, tstep, options=options, instrument=recorder
                )
        except Exception:
            return False

        sims = len(specs)
        share = (time.perf_counter() - t0) / sims
        group_telemetry = deterministic_telemetry(recorder)
        snapshot = job_snapshot(recorder)
        for k, (index, spec) in enumerate(chunk):
            try:
                job_result = package_job(
                    spec,
                    built,
                    result.variants[k],
                    _member_counts(result.stats, sims, k),
                    group_telemetry if k == 0 else None,
                    share,
                )
            except SimulationError as exc:  # a requested trace is missing
                emit(index, "error", str(exc), share, snapshot if k == 0 else None)
                continue
            emit(index, "ok", job_result, share, snapshot if k == 0 else None)
        return True

    def close(self) -> None:
        pass
