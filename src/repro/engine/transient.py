"""The LTE-controlled transient engine (the WavePipe baseline and its base).

:class:`TransientEngine` is the reference SPICE loop the paper
parallelises: DC operating point, then Newton solves with predictor
initial guesses, truncation-error acceptance, shrink-and-retry, and
breakpoint restarts. It owns the run state, the *only* time loop and the
*only* routine through which a candidate point is accepted, LTE-rejected
or Newton-failed (:meth:`TransientEngine.verify_ascending`). Its default
stage is the sequential step; the WavePipe schemes subclass it
(:mod:`repro.core.pipeline`) and override only the stage, so sequential
and pipelined points pass the same test by construction.

:func:`run_transient` and
:func:`~repro.engine.ensemble.run_ensemble_transient` are thin shells
around it: the engine runs unchanged over an
:class:`~repro.mna.system.MnaSystem` or a K-variant
:class:`~repro.mna.ensemble.EnsembleSystem`. What differs between the two
is the Newton kernel underneath, and :func:`kernel_for` is the single
place that picks it — from the system's ``sims`` axis, never from an
option.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields
from typing import Callable, NamedTuple

import numpy as np

from repro.circuit.circuit import Circuit
from repro.errors import SimulationError, TimestepError
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

#: Relative slack when deciding the run "reached" tstop or a breakpoint.
END_SLACK = 1e-12

#: Hard cap on stages (reject/retry cycles) per simulation, a runaway guard.
MAX_ATTEMPTS_FACTOR = 400


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
            newton_solve,
            lambda: LinearSolver(system.unknown_names, system.pattern),
            lte_verdict,
        )
    return Kernel(
        ensemble_newton_solve,
        lambda: BlockSolver(system.sims, system.unknown_names, system.pattern),
        ensemble_lte_verdict,
    )


@dataclass(frozen=True)
class PointTask:
    """One time point to solve, as data: the history it integrates
    against, its target time and how the solve is bounded. Where it is
    solved (which lane's buffers and solver) is the engine's business."""

    history: TimepointHistory
    t: float
    force_be: bool
    iter_cap: int | None = None
    #: Newton's starting iterate (default: the history's predictor).
    x_guess: np.ndarray | None = None


@dataclass
class PointSolution:
    """One attempted time point: Newton outcome plus its integration scheme."""

    t: float
    result: NewtonResult
    scheme: SchemeCoefficients
    #: Its ``stage_task`` trace span (0: untraced or a one-wide stage).
    span_id: int = 0

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
    buffers,
    solver: LinearSolver | BlockSolver,
    kernel: Kernel,
    x_guess: np.ndarray | None = None,
    iter_cap: int | None = None,
) -> PointSolution:
    """Newton-solve the circuit at *t_new* against *history*.

    The initial guess defaults to the polynomial predictor. The returned
    solution carries q and qdot so it can be appended to a history
    directly. Stateless with respect to *system*: concurrent WavePipe
    tasks are safe because each runs in its own lane's *buffers* and
    *solver* (:meth:`TransientEngine.solve_point`). On an ensemble system
    the history carries ``(n, K)`` state, so predictor, ``beta`` and
    charge derivative inherit the variant axis elementwise. *kernel* is
    ``kernel_for(system)``, which an engine resolves once.
    """
    scheme = scheme_coefficients(options.method, history, t_new, force_be=force_be)
    if x_guess is None:
        if options.newton_guess == "predictor":
            x_guess = history.predict(t_new, options.predictor_order)
        else:
            x_guess = history.last.x
    result = kernel.newton(
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
        result.q = system.charge_at(result.x, buffers)
        result.qdot = scheme.qdot(result.q)
    return PointSolution(t_new, result, scheme)


#: The counts a job result persists, in payload order. Wall-clock fields
#: are deliberately absent: cached results must be byte-identical across
#: reruns on any host.
COUNT_FIELDS = (
    "accepted_points",
    "rejected_points",
    "newton_failures",
    "newton_iterations",
    "work_units",
    "lu_factors",
    "lu_solves",
    "lu_reuse_hits",
    "bypass_fallbacks",
)


@dataclass
class TransientStats:
    """The record of one transient run (sequential or pipelined).

    Wall time is split at the phase boundary the cost model also splits
    at: ``dcop_seconds`` covers the DC operating point (inherently
    serial), ``tran_seconds`` the time-stepping loop (what pipelining
    accelerates). The derived ratios the paper's evaluation reads
    (iterations per point, reject rate, factor reuse) are properties;
    :meth:`to_dict` and :meth:`summary` report fields and ratios alike.
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
    #: Failed stages a pipelined run's guard (insurance) point rescued.
    guard_salvages: int = 0

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

    @property
    def iterations_per_point(self) -> float:
        """Newton iterations per *accepted* point (includes rejected work)."""
        if self.accepted_points <= 0:
            return 0.0
        return self.newton_iterations / self.accepted_points

    @property
    def reject_rate(self) -> float:
        """LTE rejections as a fraction of LTE-tested candidates."""
        tested = self.accepted_points + self.rejected_points
        return self.rejected_points / tested if tested else 0.0

    @property
    def reuse_hit_rate(self) -> float:
        """Back-solves served by reused factors, as a fraction of all
        back-solves (0.0 with jacobian_reuse off on a nonlinear circuit;
        a linear one reuses exact factors within each solve regardless)."""
        if self.lu_solves <= 0:
            return 0.0
        return self.lu_reuse_hits / self.lu_solves

    def counts(self) -> dict:
        """The persisted counts, in ``COUNT_FIELDS`` order."""
        return {name: getattr(self, name) for name in COUNT_FIELDS}

    def to_dict(self) -> dict:
        """JSON-safe dump: every field plus the derived ratios."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out.update(
            wall_seconds=self.wall_seconds,
            iterations_per_point=self.iterations_per_point,
            reject_rate=self.reject_rate,
            reuse_hit_rate=self.reuse_hit_rate,
        )
        return out

    def summary(self) -> str:
        """Human-readable end-of-run report."""
        lines = [
            "run stats",
            f"  points: {self.accepted_points} accepted, "
            f"{self.rejected_points} rejected ({self.reject_rate:.1%} reject rate), "
            f"{self.newton_failures} Newton failures",
            f"  newton: {self.newton_iterations} iterations, "
            f"{self.iterations_per_point:.2f} per accepted point",
            f"  wall: dcop {self.dcop_seconds:.4f}s + transient "
            f"{self.tran_seconds:.4f}s = {self.wall_seconds:.4f}s",
        ]
        if self.lu_solves:
            lines.append(
                f"  lu: {self.lu_factors} factor, {self.lu_solves} back-solves "
                f"({self.reuse_hit_rate:.1%} on reused factors, "
                f"{self.bypass_fallbacks} bypass fallbacks)"
            )
        return "\n".join(lines)


@dataclass
class TransientResult:
    """Waveforms plus diagnostics of one transient run."""

    waveforms: "WaveformSet"
    stats: TransientStats
    times: np.ndarray
    step_sizes: np.ndarray
    options: SimOptions

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
    q0 = system.charge_at(x0)
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
            land there.
    """
    if isinstance(compiled, Circuit):
        compiled = compile_circuit(compiled, options)
    options = options or compiled.options
    if instrument is not None:
        options = options.replace(instrument=instrument)
    system = MnaSystem(compiled)
    engine = TransientEngine(
        system,
        lambda stats: _initial_solution(system, options, uic, node_ics, stats),
        tstop,
        tstep,
        options,
    )
    result = engine.run()
    result.waveforms = _build_waveforms(system, result.times, engine.solutions)
    return result


class TransientEngine:
    """One LTE-controlled transient run, 0 to *tstop* (single use).

    Owns the run state (accepted history, step controller, recorded
    points, stats), the time loop with its attempt budget, and
    :meth:`verify_ascending`, the one routine through which a point enters
    the history. :meth:`run_stage` advances the run by one stage; the
    default is the sequential step. The WavePipe schemes
    (:class:`~repro.core.pipeline.PipelineEngine`) override it with wider
    stages and add only what is parallel.

    *start* yields the ``(x0, q0)`` state at t=0 and books its cost into
    the stats it is handed. State arrays are whatever shape *system*
    evaluates — ``(n,)``, or ``(n, K)`` for an ensemble, whose K variants
    then share one grid and one controller.
    """

    #: Solver lanes, one per concurrent task of a stage.
    threads = 1

    def __init__(
        self,
        system: MnaSystem,
        start: Callable[[TransientStats], tuple[np.ndarray, np.ndarray]],
        tstop: float,
        tstep: float | None,
        options: SimOptions,
        scheme: str = "sequential",
    ):
        self.system = system
        self.options = options
        self.tstop = float(tstop)
        self.scheme_name = scheme
        self._start = start
        #: Instrumentation sink (NullRecorder unless configured).
        self.recorder = resolve_recorder(options.instrument)
        #: Span attributes of an ensemble run (none on a scalar system).
        self._tags = {"sims": system.sims} if system.sims is not None else {}
        self._run_tags = self._tags
        self.stats = TransientStats()
        self.history = TimepointHistory()
        self.t = 0.0
        #: Stages started so far (each is at least one solve attempt).
        self.attempts = 0
        #: The accepted grid: times, solutions (t=0 first) and steps taken.
        self.times: list[float] = []
        self.solutions: list[np.ndarray] = []
        self.step_sizes: list[float] = []
        h0 = options.first_step_fraction * (tstep if tstep else tstop / 50.0)
        self.controller = StepController(
            options, self.tstop, h0, system.compiled.collect_breakpoints(self.tstop)
        )
        # One (buffers, solver) lane per thread, kept for the whole run so
        # factors carry over between time points. Lane k serves stage
        # slot k, lane 0 also the one-wide stage; a pipelined subclass
        # sets ``threads`` before calling this.
        self._kernel = kernel_for(system)
        self._lanes = [
            (system.make_buffers(), self._kernel.make_solver())
            for _ in range(self.threads)
        ]
        #: Open ``timestep`` span of a traced one-wide stage (0 = none).
        self._step_span = 0
        self._ran = False

    def run(self) -> TransientResult:
        """Execute the full transient and package the result."""
        if self._ran:
            raise SimulationError(f"{type(self).__name__} instances are single-use")
        self._ran = True
        rec = self.recorder
        tracing = rec.enabled
        stats = self.stats
        started = time.perf_counter()
        run_sid = (
            rec.begin_span(RUN, kind=self.scheme_name, **self._run_tags)
            if tracing
            else 0
        )

        x0, q0 = self._start(stats)
        self.history.append(Timepoint(0.0, x0, q0, np.zeros_like(x0)))
        self.times.append(0.0)
        self.solutions.append(x0)

        budget = MAX_ATTEMPTS_FACTOR * max(
            int(self.tstop / self.controller.h_rec), 1000
        )
        while self.t < self.tstop * (1.0 - END_SLACK):
            self.attempts += 1
            if self.attempts > budget:
                raise TimestepError(
                    f"attempt budget exhausted at t={self.t:.3e}s "
                    f"({stats.accepted_points} accepted, "
                    f"{stats.rejected_points} rejected)"
                )
            self.run_stage()

        stats.tran_seconds = time.perf_counter() - started - stats.dcop_seconds
        if tracing:
            rec.end_span(run_sid, cost=self.run_cost(), accepted=stats.accepted_points)
        return self._package(
            stats=stats,
            times=np.array(self.times),
            step_sizes=np.array(self.step_sizes),
            options=self.options,
        )

    def run_cost(self) -> float:
        """Work units the whole run cost (the ``run`` span's cost)."""
        return self.stats.total_work

    def _package(self, **fields) -> TransientResult:
        # how ``solutions`` split into traces is the calling shell's business
        return TransientResult(waveforms=None, **fields)

    def run_stage(self) -> PointSolution:
        """Advance by one stage; the default is the sequential step.

        Propose, Newton-solve the one candidate inline, verify; returns
        the candidate (its cost is the whole stage's). An override must
        make progress or adjust the controller so a later stage can; the
        attempt budget catches livelock.
        """
        h, _ = self.controller.propose(self.t)
        if self.recorder.enabled:
            self._step_span = self.recorder.begin_span(
                TIMESTEP, t_sim=self.t + h, h=h, **self._tags
            )
        solution = self.solve_point(
            PointTask(self.history, self.t + h, self.controller.force_be)
        )
        self.charge_solution(solution)
        self.verify_ascending([solution], [h])
        return solution

    def solve_point(self, task: PointTask, lane: int = 0) -> PointSolution:
        """Newton-solve *task* in lane *lane*'s buffers and solver.

        The one place the engines solve a time point. A lane runs at most
        one task at a time: the one-wide stage and a forward scheme's
        inline corrective re-solve use lane 0, and a wide stage binds
        task k to lane k (:meth:`~repro.core.pipeline.PipelineEngine.solve_stage`).
        """
        buffers, solver = self._lanes[lane]
        return solve_timepoint(
            self.system,
            task.history,
            task.t,
            self.options,
            task.force_be,
            buffers,
            solver,
            self._kernel,
            task.x_guess,
            task.iter_cap,
        )

    # -- the one accept / reject path ---------------------------------------------

    def verify_ascending(
        self, solutions, gaps, guard=None, guard_gap=0.0
    ) -> list[LteVerdict]:
        """Accept a stage's candidates oldest-first, up to the first failure.

        A candidate is committed iff its Newton solve converged and it
        passes the LTE test against the live history. A failed candidate
        discards everything beyond it (those solves depended on the same
        base but their acceptance would leave a gap in the verified
        chain); when it is the *first* candidate the controller shrinks
        and the stage retries — unless the optional *guard* solution, pure
        insurance consulted only then, converts the reject-and-retry
        cycle into accepted progress.

        *gaps* carries the planner's exact step per candidate so the
        controller sees the same floating-point step values whatever the
        stage width (recomputing them from time differences costs an
        ulp). Returns the verdicts reached, in candidate order: all
        accepting except possibly the last, and one short when the
        failure was a Newton failure.
        """
        controller = self.controller
        # Breakpoint detection must use the stage's true base time:
        # recomputing it as t_last - gap can land an ulp below the
        # *previous* breakpoint and misclassify the stage.
        stage_base = self.t
        verdicts: list[LteVerdict] = []
        last = None  # (gap, verdict) of the newest committed candidate
        failure_verdict = None
        for sol, gap in zip(solutions, gaps):
            verdict = self.verdict_for(sol) if sol.converged else None
            if verdict is not None:
                verdicts.append(verdict)
                if verdict.accepted:
                    self.commit_point(sol, gap, verdict)
                    last = (gap, verdict)
                    continue
            self.record_reject(sol, verdict, gap)
            failure_verdict = verdict
            if last is None:
                salvaged = self._try_guard(guard, guard_gap)
                if verdict is None:
                    if not salvaged:
                        controller.on_newton_failure(gap)
                elif salvaged:
                    controller.h_rec = min(
                        controller.h_rec, max(verdict.h_optimal, controller.min_step)
                    )
                else:
                    controller.on_reject(gap, verdict)
            break

        if last is not None:
            gap, verdict = last
            hit_bp = self.t >= controller.next_breakpoint(stage_base) * (
                1.0 - END_SLACK
            )
            controller.on_accept(gap, verdict, hit_bp)
            if hit_bp:
                self.history.mark_era()
            if failure_verdict is not None:
                # A later sibling failed: temper the recommendation with
                # the information its rejection carries.
                retry = max(failure_verdict.h_optimal, controller.min_step)
                controller.h_rec = min(controller.h_rec, retry)
        return verdicts

    def _try_guard(self, guard, gap: float) -> bool:
        """Commit a guard (insurance) point if it converged and passes LTE.

        Returns True when the guard was committed: the otherwise-wasted
        stage made accepted progress after all.
        """
        if guard is None or not guard.converged:
            return False
        verdict = self.verdict_for(guard)
        if not verdict.accepted:
            return False
        self.commit_point(guard, gap, verdict)
        self.controller.on_accept(gap, verdict, False)
        self.stats.guard_salvages += 1
        if self.recorder.enabled:
            self.recorder.count("guard.salvages")
        return True

    def verdict_for(self, solution: PointSolution) -> LteVerdict:
        """LTE test of a converged point against the live history,
        honouring the step it was solved over."""
        return self._kernel.verdict(
            solution.scheme.method_used,
            solution.scheme.order,
            self.history,
            solution.t,
            solution.result.x,
            self.system.voltage_rows,
            self.options,
            h_solve=solution.scheme.h,
        )

    def charge_solution(self, solution: PointSolution) -> None:
        """Book one Newton solve's statistics (not clock time)."""
        self.stats.newton_iterations += solution.result.iterations
        self.stats.work_units += solution.result.work_units
        self.stats.charge_lu(solution.result)

    def commit_point(
        self, solution: PointSolution, h_taken: float, verdict: LteVerdict
    ) -> None:
        """Append an accepted point and record its trace sample."""
        self.history.append(solution.to_timepoint())
        self.t = solution.t
        self.stats.accepted_points += 1
        self.times.append(self.t)
        self.solutions.append(solution.result.x)
        self.step_sizes.append(h_taken)
        rec = self.recorder
        if rec.enabled:
            self.tag_outcome(solution, OUTCOME_ACCEPTED)
            rec.count("points.accepted")
            rec.observe("step.h_accepted", h_taken)
            if self._tags:
                rec.count("ensemble.points.accepted")
                if verdict.estimated:
                    rec.observe("ensemble.lte.worst_ratio", verdict.error_ratio)
            rec.event(STEP_ACCEPT, t_sim=self.t, h=h_taken)

    def record_reject(
        self, solution: PointSolution, verdict: LteVerdict | None, gap: float
    ) -> None:
        """Book a failed candidate — a Newton failure (*verdict* None) or
        an LTE rejection — and emit its trace records."""
        rec = self.recorder
        if verdict is None:
            self.stats.newton_failures += 1
            if rec.enabled:
                self.tag_outcome(solution, OUTCOME_NEWTON_FAIL)
            return
        self.stats.rejected_points += 1
        if rec.enabled:
            # The sequential step reports the step it proposed (its open
            # ``timestep`` span's ``h``, to the bit); a stage task the
            # distance it integrated over, which for a chain point is not
            # its gap to the previous candidate.
            h = gap if self._step_span else solution.scheme.h
            self.tag_outcome(solution, OUTCOME_LTE_REJECT)
            rec.count("lte.rejects")
            worst = {}
            if self._tags:
                rec.count("ensemble.lte.rejects")
                worst["worst_variant"] = int(verdict.ratios.argmax())
            rec.event(
                LTE_REJECT, t_sim=solution.t, h=h, h_optimal=verdict.h_optimal, **worst
            )

    def tag_outcome(self, solution: PointSolution, outcome: str) -> None:
        """Record a candidate's fate on its span (recorder enabled): the
        one-wide stage's ``timestep`` span is still open and closes here
        with its cost; a stage task's span closed on its worker lane and
        is tagged after the fact."""
        if self._step_span:
            self.recorder.end_span(
                self._step_span, outcome=outcome, cost=solution.result.work_units
            )
            self._step_span = 0
        else:
            self.recorder.tag_span(solution.span_id, outcome=outcome)


def _build_waveforms(system: MnaSystem, times, xs) -> "WaveformSet":
    from repro.waveform.waveform import WaveformSet

    matrix = np.vstack(xs)
    data = {name: matrix[:, i] for i, name in enumerate(system.unknown_names)}
    return WaveformSet(np.asarray(times), data)
