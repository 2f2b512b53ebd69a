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

import contextlib
import json
import time

from repro.instrument import Recorder, use_recorder
from repro.jobs.spec import JobSpec, apply_params
from repro.jobs.workers import (
    TELEMETRY_EVENT_TAIL,
    JobResult,
    deterministic_telemetry,
    execute_job,
)
from repro.utils.options import SimOptions

#: Stat fields apportioned across group members (cost counters); the
#: remaining _STAT_FIELDS are grid-level counts shared verbatim.
_APPORTIONED_INT_FIELDS = (
    "lu_factors",
    "lu_solves",
    "lu_reuse_hits",
    "bypass_fallbacks",
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
        # trace contexts are accepted for scheduler compatibility but not
        # bound per job: a lockstep group mixes jobs from many requests.
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
                if len(chunk) < 2:
                    self._run_single(*chunk[0], emit, telemetry)
                    continue
                if not self._run_group(chunk, emit, telemetry):
                    for index, spec in chunk:
                        self._run_single(index, spec, emit, telemetry)

    @staticmethod
    def _run_single(index: int, spec: JobSpec, emit, telemetry: bool) -> None:
        """Serial-backend execution path for one unbatchable job."""
        recorder = (
            Recorder(max_events=TELEMETRY_EVENT_TAIL, evict="tail")
            if telemetry
            else None
        )

        def snapshot():
            if recorder is None:
                return None
            return recorder.snapshot(events_tail=TELEMETRY_EVENT_TAIL)

        t0 = time.perf_counter()
        try:
            result = execute_job(spec, instrument=recorder)
        except Exception as exc:
            emit(index, "error", f"{type(exc).__name__}: {exc}",
                 time.perf_counter() - t0, snapshot())
        else:
            emit(index, "ok", result, result.elapsed, snapshot())

    def _run_group(self, chunk, emit, telemetry: bool) -> bool:
        """One batched solve for *chunk*; False requests per-job fallback.

        Nothing is emitted unless the whole group succeeds, so the
        fallback path re-runs every member with clean slate semantics.
        """
        from repro.engine.ensemble import run_ensemble_transient
        from repro.jobs.workers import FAULT_HOOK as fault_hook

        specs = [spec for _, spec in chunk]
        recorder = (
            Recorder(max_events=TELEMETRY_EVENT_TAIL, evict="tail")
            if telemetry
            else None
        )
        t0 = time.perf_counter()
        try:
            if fault_hook is not None:
                for spec in specs:
                    fault_hook(spec)
            built = specs[0].circuit.build()
            circuits = [apply_params(built.circuit, spec.params) for spec in specs]
            tstop = specs[0].tstop if specs[0].tstop is not None else built.tstop
            if tstop is None or tstop <= 0:
                return False  # surface the error through the scalar path
            tstep = specs[0].tstep if specs[0].tstep is not None else built.tstep
            options = built.options or SimOptions()
            if specs[0].options:
                options = options.replace(**specs[0].options)
            sim_scope = (
                use_recorder(recorder)
                if recorder is not None
                else contextlib.nullcontext()
            )
            if recorder is not None:
                recorder.count("ensemble.batches")
            with sim_scope:
                result = run_ensemble_transient(
                    circuits, tstop, tstep, options=options, instrument=recorder
                )
        except Exception:
            return False

        elapsed = time.perf_counter() - t0
        sims = len(specs)
        share = elapsed / sims
        stats = result.stats
        times = [float(t) for t in result.times]
        group_telemetry = deterministic_telemetry(recorder)
        snapshot = (
            recorder.snapshot(events_tail=TELEMETRY_EVENT_TAIL)
            if recorder is not None
            else None
        )
        for k, (index, spec) in enumerate(chunk):
            variant = result.variants[k]
            waveforms = variant.waveforms
            names = list(spec.signals) if spec.signals is not None else None
            if names is None and built.signals is not None:
                names = list(built.signals)
            if names is None:
                names = [n for n in waveforms.names if n.startswith("v")]
            missing = [n for n in names if n not in waveforms]
            if missing:
                emit(
                    index,
                    "error",
                    f"job {spec.label!r}: no trace(s) named {missing} in the result",
                    share,
                    snapshot if k == 0 else None,
                )
                continue
            stat_dump = {
                "accepted_points": stats.accepted_points,
                "rejected_points": stats.rejected_points,
                "newton_failures": stats.newton_failures,
                "newton_iterations": stats.newton_iterations,
                "work_units": stats.work_units / sims,
            }
            for field in _APPORTIONED_INT_FIELDS:
                stat_dump[field] = _apportion(getattr(stats, field), sims, k)
            job_result = JobResult(
                spec_hash=spec.content_hash(),
                label=spec.label,
                analysis=spec.analysis,
                final_time=float(result.final_time),
                times=times,
                signals={n: [float(v) for v in waveforms[n].values] for n in names},
                stats=stat_dump,
                telemetry=group_telemetry if k == 0 else None,
                elapsed=share,
            )
            emit(index, "ok", job_result, share, snapshot if k == 0 else None)
        return True

    def close(self) -> None:
        pass
