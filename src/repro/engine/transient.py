"""Sequential LTE-controlled transient analysis (the WavePipe baseline).

This is the reference SPICE loop the paper parallelises: DC operating
point, then one Newton solve per time point with predictor initial
guesses, truncation-error acceptance, shrink-and-retry, and breakpoint
restarts. WavePipe reuses the same building blocks
(:func:`solve_timepoint`, :func:`accept_point`) so sequential and
pipelined runs are numerically comparable point for point.

It is also the *only* LTE-controlled time loop: :func:`drive_transient`
runs unchanged over an :class:`~repro.mna.system.MnaSystem` or a K-variant
:class:`~repro.mna.ensemble.EnsembleSystem`. What differs between the two
is the Newton kernel underneath, and :func:`kernel_for` is the single
place that picks it — from the system's ``sims`` axis, never from an
option.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from repro.circuit.circuit import Circuit
from repro.errors import TimestepError
from repro.instrument.events import (
    DCOP,
    LTE_REJECT,
    OUTCOME_ACCEPTED,
    OUTCOME_LTE_REJECT,
    OUTCOME_NEWTON_FAIL,
    RUN,
    STEP_ACCEPT,
    TIMESTEP,
)
from repro.instrument.metrics import RunMetrics
from repro.instrument.recorder import resolve_recorder
from repro.integration.controller import StepController
from repro.integration.history import Timepoint, TimepointHistory
from repro.integration.lte import LteVerdict, ensemble_lte_verdict, lte_verdict
from repro.integration.methods import SchemeCoefficients, scheme_coefficients
from repro.linalg.solve import BlockSolver, LinearSolver
from repro.mna.compiler import CompiledCircuit, compile_circuit
from repro.mna.system import MnaSystem
from repro.solver.dcop import solve_operating_point
from repro.solver.ensemble import ensemble_newton_solve
from repro.solver.newton import NewtonResult, newton_solve
from repro.utils.options import SimOptions

#: Fraction of tstop considered "reached the end".
END_SLACK = 1e-12

#: Hard cap on attempts (reject/retry cycles) per simulation, a runaway guard.
MAX_ATTEMPTS_FACTOR = 200


class Kernel(NamedTuple):
    """The per-timepoint numerics that differ between scalar and ensemble."""

    newton: Callable[..., NewtonResult]
    make_solver: Callable[[], LinearSolver | BlockSolver]
    verdict: Callable[..., LteVerdict]


def kernel_for(system: MnaSystem) -> Kernel:
    """The Newton / linear-solver / LTE triple for *system*.

    Two inner Newton loops exist because each wins on a benchmark
    workload: the scalar loop is 1.2-1.5x faster at K=1 (``digital_seq``,
    ledger row ``ensemble.k1_over_seq``), the lockstep loop ~2.8x faster
    per variant at K=8 (``ensemble_mc``). Everything around them is
    shared, and this is the one place that chooses.
    """
    if system.sims is None:
        return Kernel(
            newton_solve, lambda: LinearSolver(system.unknown_names), lte_verdict
        )
    return Kernel(
        ensemble_newton_solve,
        lambda: BlockSolver(system.sims, system.unknown_names),
        ensemble_lte_verdict,
    )


@dataclass
class PointSolution:
    """One attempted time point: Newton outcome plus its integration scheme."""

    t: float
    result: NewtonResult
    scheme: SchemeCoefficients

    @property
    def converged(self) -> bool:
        return self.result.converged

    def to_timepoint(self) -> Timepoint:
        """Package as an accepted history point (requires convergence)."""
        return Timepoint(
            t=self.t, x=self.result.x, q=self.result.q, qdot=self.result.qdot
        )


def solve_timepoint(
    system: MnaSystem,
    history: TimepointHistory,
    t_new: float,
    options: SimOptions,
    force_be: bool,
    buffers=None,
    solver: LinearSolver | BlockSolver | None = None,
    x_guess: np.ndarray | None = None,
    iter_cap: int | None = None,
) -> PointSolution:
    """Newton-solve the circuit at *t_new* against *history*.

    The initial guess defaults to the polynomial predictor. The returned
    solution carries q and qdot so it can be appended to a history
    directly. Stateless with respect to *system*: safe for concurrent
    WavePipe tasks, each with its own *buffers* and *solver*. On an
    ensemble system the history carries ``(n, K)`` state, so predictor,
    ``beta`` and charge derivative inherit the variant axis elementwise.
    """
    buffers = buffers if buffers is not None else system.make_buffers()
    scheme = scheme_coefficients(options.method, history, t_new, force_be=force_be)
    if x_guess is None:
        if options.newton_guess == "predictor":
            x_guess = history.predict(t_new, options.predictor_order)
        else:
            x_guess = history.last.x
    result = kernel_for(system).newton(
        system,
        t_new,
        scheme.alpha0,
        scheme.beta,
        x_guess,
        options,
        out=buffers,
        solver=solver,
        iter_cap=iter_cap,
    )
    if result.converged:
        system.eval(result.x, t_new, buffers)
        result.q = system.charge(buffers)
        result.qdot = scheme.qdot(result.q)
    return PointSolution(t_new, result, scheme)


def accept_point(
    system: MnaSystem,
    history: TimepointHistory,
    solution: PointSolution,
    options: SimOptions,
) -> LteVerdict:
    """Run the truncation-error test for a converged point."""
    return kernel_for(system).verdict(
        solution.scheme.method_used,
        solution.scheme.order,
        history,
        solution.t,
        solution.result.x,
        system.voltage_mask,
        options,
        h_solve=solution.scheme.h,
    )


@dataclass
class TransientStats:
    """Cost accounting for one transient run (sequential or pipelined).

    Wall time is split at the phase boundary the cost model also splits
    at: ``dcop_seconds`` covers the DC operating point (inherently
    serial), ``tran_seconds`` the time-stepping loop (what pipelining
    accelerates). The historical ``wall_seconds`` remains as the derived
    sum.
    """

    accepted_points: int = 0
    rejected_points: int = 0
    newton_failures: int = 0
    newton_iterations: int = 0
    work_units: float = 0.0
    dc_work_units: float = 0.0
    dcop_seconds: float = 0.0
    tran_seconds: float = 0.0
    lu_factors: int = 0
    lu_solves: int = 0
    lu_reuse_hits: int = 0
    bypass_fallbacks: int = 0
    extra: dict = field(default_factory=dict)

    def charge_lu(self, result: NewtonResult) -> None:
        """Accumulate one Newton solve's linear-solver cost breakdown."""
        self.lu_factors += result.lu_factors
        self.lu_solves += result.lu_solves
        self.lu_reuse_hits += result.lu_reuse_hits
        self.bypass_fallbacks += result.bypass_fallbacks

    @property
    def wall_seconds(self) -> float:
        """Total wall time: operating point plus transient loop."""
        return self.dcop_seconds + self.tran_seconds

    @property
    def total_work(self) -> float:
        """Serial work including the operating point."""
        return self.work_units + self.dc_work_units


@dataclass
class TransientResult:
    """Waveforms plus diagnostics of one transient run."""

    waveforms: "WaveformSet"
    stats: TransientStats
    times: np.ndarray
    step_sizes: np.ndarray
    options: SimOptions
    metrics: RunMetrics | None = None

    @property
    def final_time(self) -> float:
        return float(self.times[-1])


def _initial_solution(
    system: MnaSystem,
    options: SimOptions,
    uic: bool,
    node_ics: dict[str, float] | None,
    stats: TransientStats,
) -> tuple[np.ndarray, np.ndarray]:
    """Starting (x0, q0) from the operating point or initial conditions.

    Also adds the phase's cost and wall time to *stats* (an ensemble
    calls this once per variant on one shared *stats*) and emits the
    ``dcop`` trace event when a recorder is attached.
    """
    compiled = system.compiled
    rec = resolve_recorder(options.instrument)
    started = time.perf_counter()
    if not uic:
        op = solve_operating_point(system, options)
        stats.dc_work_units += op.work_units
        stats.newton_iterations += op.iterations
        stats.lu_factors += op.lu_factors
        stats.lu_solves += op.lu_solves
        stats.lu_reuse_hits += op.lu_reuse_hits
        elapsed = time.perf_counter() - started
        stats.dcop_seconds += elapsed
        if rec.enabled:
            rec.emit_span(
                DCOP,
                ts=rec.clock() - elapsed,
                dur=elapsed,
                t_sim=0.0,
                cost=op.work_units,
                strategy=op.strategy,
                iterations=op.iterations,
                work_units=op.work_units,
            )
        return op.x, op.q
    x0 = np.zeros(system.n)
    for key, value in compiled.initial_conditions.items():
        kind, _, name = key.partition(":")
        if kind == "v":
            x0[compiled.node_voltage_index(name)] = value
        else:
            x0[compiled.branch_current_index(name)] = value
    for node, value in (node_ics or {}).items():
        x0[compiled.node_voltage_index(node)] = value
    out = system.make_buffers()
    system.eval(x0, 0.0, out)
    q0 = system.charge(out)
    stats.dcop_seconds += time.perf_counter() - started
    return x0, q0


def run_transient(
    compiled: CompiledCircuit | Circuit,
    tstop: float,
    tstep: float | None = None,
    options: SimOptions | None = None,
    uic: bool = False,
    node_ics: dict[str, float] | None = None,
    instrument=None,
) -> TransientResult:
    """Sequential transient simulation from 0 to *tstop*.

    Args:
        compiled: a circuit or an already-compiled circuit.
        tstep: suggested output/initial step (SPICE ``.tran`` tstep); only
            influences the first step, not output density.
        uic: skip the operating point and start from initial conditions.
        node_ics: extra initial node voltages for ``uic`` runs.
        instrument: optional :class:`~repro.instrument.Recorder` (threaded
            into ``options.instrument``); the run's events and counters
            land there and the result's ``metrics`` gains its counters.
    """
    if isinstance(compiled, Circuit):
        compiled = compile_circuit(compiled, options)
    options = options or compiled.options
    if instrument is not None:
        options = options.replace(instrument=instrument)
    system = MnaSystem(compiled)
    result, xs = drive_transient(
        system,
        lambda stats: _initial_solution(system, options, uic, node_ics, stats),
        tstop,
        tstep,
        options,
        scheme="sequential",
    )
    result.waveforms = _build_waveforms(system, result.times, xs)
    return result


def drive_transient(
    system: MnaSystem,
    start: Callable[[TransientStats], tuple[np.ndarray, np.ndarray]],
    tstop: float,
    tstep: float | None,
    options: SimOptions,
    scheme: str,
) -> tuple[TransientResult, list[np.ndarray]]:
    """The LTE-controlled time loop, 0 to *tstop*, over *system*.

    *start* yields the ``(x0, q0)`` state at t=0 and books its cost into
    the stats it is handed. State arrays are whatever shape *system*
    evaluates — ``(n,)``, or ``(n, K)`` for an ensemble, whose K variants
    then share one grid and one controller. Returns the result with
    ``waveforms`` still unset, plus the accepted solutions (t=0 first):
    how those split into traces is the caller's business.
    """
    rec = resolve_recorder(options.instrument)
    tracing = rec.enabled
    ensemble = system.sims is not None
    tags = {"sims": system.sims} if ensemble else {}  # span attrs
    stats = TransientStats()
    started = time.perf_counter()
    run_sid = rec.begin_span(RUN, kind=scheme, **tags) if tracing else 0

    x0, q0 = start(stats)
    history = TimepointHistory()
    history.append(Timepoint(0.0, x0, q0, np.zeros_like(x0)))

    h0 = options.first_step_fraction * (tstep if tstep else tstop / 50.0)
    controller = StepController(
        options, tstop, h0, system.compiled.collect_breakpoints(tstop)
    )

    rec_times = [0.0]
    rec_x = [x0]
    step_sizes: list[float] = []
    buffers = system.make_buffers()
    solver = kernel_for(system).make_solver()

    t = 0.0
    attempts = 0
    max_attempts = MAX_ATTEMPTS_FACTOR * max(int(tstop / h0), 1000)
    while t < tstop * (1.0 - END_SLACK):
        attempts += 1
        if attempts > max_attempts:
            raise TimestepError(
                f"attempt budget exhausted at t={t:.3e}s "
                f"({stats.accepted_points} accepted, {stats.rejected_points} rejected)"
            )
        h, hits_bp = controller.propose(t)
        step_sid = rec.begin_span(TIMESTEP, t_sim=t + h, h=h, **tags) if tracing else 0
        solution = solve_timepoint(
            system, history, t + h, options, controller.force_be, buffers, solver
        )
        stats.work_units += solution.result.work_units
        stats.newton_iterations += solution.result.iterations
        stats.charge_lu(solution.result)
        if not solution.converged:
            stats.newton_failures += 1
            if tracing:
                rec.end_span(
                    step_sid,
                    outcome=OUTCOME_NEWTON_FAIL,
                    cost=solution.result.work_units,
                )
            controller.on_newton_failure(h)
            continue

        verdict = accept_point(system, history, solution, options)
        if not verdict.accepted:
            stats.rejected_points += 1
            if tracing:
                rec.end_span(
                    step_sid,
                    outcome=OUTCOME_LTE_REJECT,
                    cost=solution.result.work_units,
                )
                rec.count("lte.rejects")
                worst = {}
                if ensemble:
                    rec.count("ensemble.lte.rejects")
                    worst["worst_variant"] = int(verdict.ratios.argmax())
                rec.event(
                    LTE_REJECT,
                    t_sim=solution.t,
                    h=h,
                    h_optimal=verdict.h_optimal,
                    **worst,
                )
            controller.on_reject(h, verdict)
            continue

        history.append(solution.to_timepoint())
        controller.on_accept(h, verdict, hits_bp)
        if hits_bp:
            history.mark_era()
        t = solution.t
        stats.accepted_points += 1
        rec_times.append(t)
        rec_x.append(solution.result.x)
        step_sizes.append(h)
        if tracing:
            rec.end_span(
                step_sid, outcome=OUTCOME_ACCEPTED, cost=solution.result.work_units
            )
            rec.count("points.accepted")
            rec.observe("step.h_accepted", h)
            if ensemble:
                rec.count("ensemble.points.accepted")
                if verdict.estimated:
                    rec.observe("ensemble.lte.worst_ratio", verdict.error_ratio)
            rec.event(STEP_ACCEPT, t_sim=t, h=h)

    stats.tran_seconds = time.perf_counter() - started - stats.dcop_seconds
    if tracing:
        rec.end_span(
            run_sid, cost=stats.total_work, accepted=stats.accepted_points
        )
    metrics = RunMetrics.from_stats(
        stats, scheme=scheme, threads=1, recorder=rec if tracing else None
    )
    result = TransientResult(
        waveforms=None,
        stats=stats,
        times=np.array(rec_times),
        step_sizes=np.array(step_sizes),
        options=options,
        metrics=metrics,
    )
    return result, rec_x


def _build_waveforms(system: MnaSystem, times, xs) -> "WaveformSet":
    from repro.waveform.waveform import WaveformSet

    matrix = np.vstack(xs)
    data = {name: matrix[:, i] for i, name in enumerate(system.unknown_names)}
    return WaveformSet(np.asarray(times), data)
