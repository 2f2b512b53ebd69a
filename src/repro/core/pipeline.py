"""WavePipe pipeline engine: what is parallel, and nothing else.

:class:`PipelineEngine` subclasses the transient engine
(:class:`~repro.engine.transient.TransientEngine`), which owns everything
a pipelined run shares with the sequential baseline — operating point,
accepted history, step controller, waveform recording, the time loop and
the one accept / LTE-reject / Newton-fail routine — and one solver lane
per thread. This module adds only what widening a stage needs: a stage
executor that runs a list of :class:`~repro.engine.transient.PointTask`
one task per lane (:meth:`PipelineEngine.solve_stage`), the virtual
clock, the EWMA scheduling policies, guard / waste / speculation
accounting, the forward schemes' corrective re-solve, and the
``stage_run`` / ``stage_task`` trace spans. Scheme subclasses plan the
tasks in :meth:`PipelineEngine.run_wide_stage`; at
``threads=1`` a pipelined run *is* the inherited one-wide stage (plus its
clock charge), so it retraces the sequential run bit for bit.

Correctness contract (the paper's central claim): a point enters the
history only if (a) its Newton solve converged against already-accepted
history using the exact integration formula, and (b) it passed the same
LTE test the sequential engine applies — structurally, because the
schemes inherit the one place a point can enter the history. Pipelining
changes *which* time points get computed and *when*, never the equations
any accepted point satisfies.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from repro.circuit.circuit import Circuit
from repro.engine.transient import (
    PointSolution,
    PointTask,
    TransientEngine,
    TransientResult,
    TransientStats,
    _build_waveforms,
    _initial_solution,
)
from repro.errors import SimulationError
from repro.instrument.events import (
    OUTCOME_ACCEPTED,
    OUTCOME_SPECULATIVE_HIT,
    OUTCOME_SPECULATIVE_WASTE,
    SPECULATE,
    STAGE_RUN,
    STAGE_TASK,
)
from repro.integration.history import Timepoint, TimepointHistory
from repro.integration.methods import scheme_coefficients
from repro.mna.compiler import CompiledCircuit, compile_circuit
from repro.mna.system import MnaSystem
from repro.parallel.clock import VirtualClock
from repro.parallel.executors import SerialExecutor, StageExecutor
from repro.utils.options import SimOptions

#: Smoothing factor for the stage rejection-rate EWMA.
REJECT_EWMA_ALPHA = 0.2

#: Rejection-rate EWMA at or above which a stage spends a thread on the
#: guard point.
REJECT_EWMA_THRESHOLD = 0.15

#: Max Newton iterations a forward-speculative task may spend against
#: predicted history: on real hardware speculation is bounded by the
#: producer's solve time, and this cap models that bound.
SPECULATIVE_ITER_CAP = 5

#: Corrective phases converging within this many iterations count as
#: speculation hits (diagnostics only).
HIT_ITERATIONS = 2


@dataclass
class PipelineStats(TransientStats):
    """Sequential stats extended with pipeline accounting.

    ``work_units`` holds the *serial-equivalent* work (every task fully
    charged); the virtual clock's ``virtual_work`` is the pipelined cost.
    """

    clock: VirtualClock = field(default_factory=VirtualClock)
    #: Solver lanes the run scheduled stages over.
    threads: int = 1
    speculative_solves: int = 0
    speculative_hits: int = 0
    wasted_solves: int = 0
    wasted_work: float = 0.0
    #: Work units spent on speculative solves (forward prediction and the
    #: combined scheme's front task) and the subset of it that was thrown
    #: away — together they price what speculation actually bought.
    speculative_work: float = 0.0
    speculative_wasted_work: float = 0.0

    @property
    def virtual_total(self) -> float:
        """Pipelined cost including the (serial) operating point."""
        return self.clock.virtual_work + self.dc_work_units

    @property
    def serial_total(self) -> float:
        """What one thread would pay for the same set of solves."""
        return self.clock.serial_work + self.dc_work_units

    def self_speedup(self) -> float:
        """Serial-equivalent / virtual: parallelism actually exploited
        (>= true speedup vs the sequential baseline, which does less work)."""
        if self.virtual_total <= 0:
            return 1.0
        return self.serial_total / self.virtual_total

    @property
    def stage_utilization(self) -> float:
        """Fraction of the thread-pool's pipelined capacity doing work.

        ``serial_work / (virtual_work * threads)``: 1.0 means every lane
        was busy for the whole virtual schedule, lower values expose
        bubbles (idle lanes while the stage's critical task finishes).
        """
        if self.clock.virtual_work <= 0 or self.threads <= 1:
            return 1.0
        return min(
            1.0, self.clock.serial_work / (self.clock.virtual_work * self.threads)
        )

    @property
    def speculation_hit_rate(self) -> float:
        if self.speculative_solves <= 0:
            return 0.0
        return self.speculative_hits / self.speculative_solves

    @property
    def speculation_efficiency(self) -> float:
        """Fraction of speculative work units that ended up useful.

        1.0 when the scheme never speculated (nothing was risked), down
        to 0.0 when every speculative solve was discarded — the economics
        number the depth throttle is trying to maximise.
        """
        if self.speculative_work <= 0:
            return 1.0
        return max(0.0, 1.0 - self.speculative_wasted_work / self.speculative_work)

    def to_dict(self) -> dict:
        out = super().to_dict()
        clock = out.pop("clock")
        out.update(
            stages=clock.stages,
            mean_stage_width=clock.mean_width,
            peak_stage_width=clock.peak_width,
            stage_utilization=self.stage_utilization,
            virtual_work=clock.virtual_work,
            serial_work=clock.serial_work,
            speculation_hit_rate=self.speculation_hit_rate,
            speculation_efficiency=self.speculation_efficiency,
        )
        return out

    def summary(self) -> str:
        clock = self.clock
        lines = [
            super().summary(),
            f"  pipeline: {self.threads} threads, {clock.stages} stages, mean width "
            f"{clock.mean_width:.2f} (peak {clock.peak_width}), "
            f"stage utilization {self.stage_utilization:.1%}",
            f"  work: virtual {clock.virtual_work:.1f} wu vs serial-equivalent "
            f"{clock.serial_work:.1f} wu (+ dcop {self.dc_work_units:.1f} wu)",
            f"  speculation: {self.speculative_solves} solves, "
            f"{self.speculative_hits} hits "
            f"({self.speculation_hit_rate:.1%} hit rate); "
            f"wasted {self.wasted_solves} solves ({self.wasted_work:.1f} wu); "
            f"{self.guard_salvages} guard salvages",
        ]
        if self.speculative_work > 0:
            lines.append(
                f"  speculation economics: {self.speculative_work:.1f} wu "
                f"risked, {self.speculative_wasted_work:.1f} wu wasted "
                f"({self.speculation_efficiency:.1%} efficient)"
            )
        return "\n".join(lines)


@dataclass
class PipelineResult(TransientResult):
    """Transient result plus scheme identification."""

    scheme: str = ""

    @property
    def pipeline_stats(self) -> PipelineStats:
        return self.stats  # typed convenience


class PipelineEngine(TransientEngine):
    """Template for one pipelined transient run (single use)."""

    #: Scheme name reported in results; subclasses override.
    scheme_name = "base"

    def __init__(
        self,
        compiled: CompiledCircuit | Circuit,
        tstop: float,
        threads: int,
        tstep: float | None = None,
        options: SimOptions | None = None,
        executor: StageExecutor | None = None,
        uic: bool = False,
        node_ics: dict[str, float] | None = None,
    ):
        if threads < 1:
            raise SimulationError("WavePipe needs threads >= 1")
        if isinstance(compiled, Circuit):
            compiled = compile_circuit(compiled, options)
        options = options or compiled.options
        system = MnaSystem(compiled)
        self.threads = threads  # one solver lane per thread
        super().__init__(
            system,
            lambda stats: _initial_solution(system, options, uic, node_ics, stats),
            tstop,
            tstep,
            options,
            scheme=self.scheme_name,
        )
        self.compiled = compiled
        self._run_tags = {"threads": threads}
        self.executor = executor or SerialExecutor()
        #: Shared with the executor (a chaos executor counts on it).
        self.executor.recorder = self.recorder
        #: Open ``stage_run`` span of a traced stage: its tasks' parent.
        self._stage_span = 0
        self.stats = PipelineStats(
            clock=VirtualClock(sync_overhead=self.options.sync_overhead),
            threads=threads,
        )
        #: EWMA of stage failure (any rejection / Newton failure); drives
        #: adaptive guard scheduling in every scheme.
        self._reject_ewma = 0.0
        #: EWMA of Newton iterations per main solve; forward speculation
        #: only pays when solves are expensive relative to a corrective.
        self._iters_ewma = 4.0
        #: EWMA of chain-extension success (backward points beyond the
        #: sequential step that passed verification): throttles chain
        #: width when extensions keep getting rejected.
        self._chain_ewma = 0.5
        #: EWMA of speculation success (corrective converged + accepted):
        #: throttles forward depth when predictions keep missing.
        self._spec_ewma = 0.5
        #: Last few LTE-optimal step estimates. The *minimum* over this
        #: window is the conservative headroom estimate used to gate and
        #: cap backward chains: a single spiked estimate (curvature
        #: inflection, where the divided difference passes through zero)
        #: cannot green-light an extension on its own.
        self._recent_h_opt: deque[float] = deque(maxlen=3)

    def note_stage_outcome(self, failed: bool) -> None:
        """Update the rejection-rate estimate after a stage."""
        self._reject_ewma = (1 - REJECT_EWMA_ALPHA) * self._reject_ewma + (
            REJECT_EWMA_ALPHA if failed else 0.0
        )

    def note_solve_cost(self, iterations: int) -> None:
        """Update the average-solve-cost estimate (main solves only)."""
        self._iters_ewma = (
            1 - REJECT_EWMA_ALPHA
        ) * self._iters_ewma + REJECT_EWMA_ALPHA * iterations

    def note_h_optimal(self, h_optimal: float) -> None:
        """Record an LTE-optimal step estimate for the headroom window."""
        self._recent_h_opt.append(h_optimal)

    @property
    def conservative_h_opt(self) -> float:
        """Pessimistic LTE-optimal step: minimum over the recent window."""
        if not self._recent_h_opt:
            return float("inf")
        return min(self._recent_h_opt)

    @property
    def guard_active(self) -> bool:
        """True when recent rejection pressure justifies a guard task."""
        return (
            self.options.backward_guard_fraction > 0
            and self._reject_ewma >= REJECT_EWMA_THRESHOLD
        )

    @property
    def speculation_pays(self) -> bool:
        """True when solves cost enough for speculation to save work."""
        return self._iters_ewma >= self.options.spec_min_iters

    def note_chain_outcome(self, scheduled: int, accepted: int) -> None:
        """Update the chain-extension success estimate (per extra point)."""
        for k in range(scheduled):
            hit = 1.0 if k < accepted else 0.0
            self._chain_ewma = (
                1 - REJECT_EWMA_ALPHA
            ) * self._chain_ewma + REJECT_EWMA_ALPHA * hit
        if self.recorder.enabled and scheduled:
            self.recorder.count("backward.chain_scheduled", scheduled)
            self.recorder.count("backward.chain_accepted", accepted)

    def note_spec_outcome(self, success: bool) -> None:
        """Update the speculation success estimate."""
        self._spec_ewma = (
            1 - REJECT_EWMA_ALPHA
        ) * self._spec_ewma + REJECT_EWMA_ALPHA * (1.0 if success else 0.0)
        if self.recorder.enabled:
            self.recorder.count(
                "speculate.successes" if success else "speculate.misses"
            )

    @property
    def chain_budget_scale(self) -> float:
        """Fraction of the thread budget the chain has been earning."""
        return self._chain_ewma

    @property
    def spec_depth_limit(self) -> int:
        """Speculation depth the recent hit rate justifies (at least 1)."""
        if self._spec_ewma >= 0.6:
            return 8  # effectively unlimited; thread count binds first
        if self._spec_ewma >= 0.3:
            return 2
        return 1

    # -- stage hooks ------------------------------------------------------------

    def run_stage(self) -> None:
        """One pipeline stage, run as a ``stage_run`` span when tracing.

        The span is the parent of this stage's task spans: pool threads
        cannot see the scheduler thread's span stack, so
        :meth:`solve_stage` passes the id explicitly. It is closed in the
        ``finally`` so a stage that raises (step underflow, chaos faults)
        still leaves a balanced tree for diagnosis.
        """
        rec = self.recorder
        if not rec.enabled:
            return self._advance()
        clock = self.stats.clock
        accepted_before = self.stats.accepted_points
        virtual_before = clock.virtual_work
        widths_before = len(clock._stage_widths)
        sid = self._stage_span = rec.begin_span(STAGE_RUN, stage=self.attempts - 1)
        try:
            self._advance()
        finally:
            width = (
                clock._stage_widths[-1]
                if len(clock._stage_widths) > widths_before
                else 1
            )
            rec.count("pipeline.stages")
            rec.observe("pipeline.stage_width", width)
            rec.end_span(
                sid,
                cost=clock.virtual_work - virtual_before,
                t_sim=self.t,
                width=width,
                accepted=self.stats.accepted_points - accepted_before,
                virtual_cost=clock.virtual_work - virtual_before,
            )

    def _advance(self) -> None:
        if self.threads > 1:
            self.run_wide_stage()
        else:
            # One thread: the inherited sequential step *is* the stage.
            solution = super().run_stage()
            self.stats.clock.advance_stage([solution.result.work_units])

    def run_wide_stage(self) -> None:
        """Advance by one multi-task stage (scheme responsibility), under
        the same progress contract as the base ``run_stage``."""
        raise NotImplementedError

    # -- shared services --------------------------------------------------------

    def solve_stage(self, tasks: list[PointTask]) -> list[PointSolution]:
        """Solve one stage's independent tasks on the executor, in order.

        Task k runs in lane k, so no two concurrent tasks share scratch
        state, and whatever order the executor runs them in, each lane
        sees the same solves in the same order as under
        :class:`~repro.parallel.executors.SerialExecutor`.
        """
        if len(tasks) > self.threads:
            raise SimulationError(
                f"a stage of {len(tasks)} tasks exceeds the engine's "
                f"{self.threads} lanes"
            )
        solve = self._traced_point if self.recorder.enabled else self.solve_point
        return self.executor.run_stage(
            [partial(solve, task, lane) for lane, task in enumerate(tasks)]
        )

    def _traced_point(self, task: PointTask, lane: int) -> PointSolution:
        """:meth:`solve_point` as a ``stage_task`` span on trace lane
        *lane* + 1 (0 is the scheduler); the verify phase tags the
        solution's outcome on it later. Newton spans nest under it."""
        rec = self.recorder
        stage = self.attempts - 1
        sid = rec.begin_span(
            STAGE_TASK, lane=lane + 1, t_sim=task.t, parent=self._stage_span
        )
        try:
            solution = self.solve_point(task, lane)
        except BaseException:
            rec.end_span(sid, cost=0.0, stage=stage)
            raise
        work = solution.result.work_units
        rec.end_span(
            sid,
            cost=work,
            stage=stage,
            work_units=work,
            iterations=solution.result.iterations,
        )
        solution.span_id = sid
        return solution

    def record_speculate(self, solution: PointSolution, success: bool,
                         iterations: int, hit: bool, spec=None,
                         depth: int = 1) -> None:
        """Emit the corrective-phase outcome of one speculative point.

        *spec* is the original speculative solution (the corrective
        *solution* was solved inline and has no task span): its span gets
        the hit/accepted tag and its pre-paid work lands on the
        speculation-economics counters. *depth* is the point's position in
        the speculative cascade (1 = nearest to the committed frontier) —
        ``repro explain`` builds its depth-vs-hit-rate curve from it.
        """
        rec = self.recorder
        if not rec.enabled:
            return
        rec.event(
            SPECULATE,
            t_sim=solution.t,
            success=success,
            corrective_iterations=iterations,
            hit=hit,
            depth=depth,
        )
        if spec is None:
            return
        if success:
            rec.count("speculate.useful_work", spec.result.work_units)
            rec.tag_span(
                spec.span_id,
                outcome=OUTCOME_SPECULATIVE_HIT if hit else OUTCOME_ACCEPTED,
            )

    def corrective_commit(self, spec: PointSolution, depth: int = 1) -> bool:
        """Re-solve a speculative point against the exact history and commit.

        The corrective Newton starts from the speculative iterate, so a
        good prediction converges almost immediately; it runs inline on
        the scheduler thread, in lane 0, after its stage has finished, and
        is charged serially. Returns False when the point was discarded
        (Newton failure or LTE rejection) — a forward cascade stops there.
        """
        x0 = spec.result.x
        if not np.all(np.isfinite(x0)):
            x0 = None  # speculation exploded: fall back to the predictor
        corrected = self.solve_point(
            PointTask(self.history, spec.t, False, x_guess=x0)
        )
        iterations = corrected.result.iterations
        gap = corrected.t - self.t
        self.charge_solution(corrected)
        self.stats.clock.advance_serial(corrected.result.work_units)
        verdict = self.verdict_for(corrected) if corrected.converged else None
        if verdict is None or not verdict.accepted:
            self.record_reject(corrected, verdict, gap)
            self.note_spec_outcome(False)
            self.record_speculate(
                corrected, False, iterations, False, spec=spec, depth=depth
            )
            self.waste([spec], speculative=True)
            if verdict is not None:
                self.controller.on_reject(gap, verdict)
            return False
        self.note_spec_outcome(True)
        hit = iterations <= HIT_ITERATIONS
        self.record_speculate(corrected, True, iterations, hit, spec=spec, depth=depth)
        if hit:
            self.stats.speculative_hits += 1
        self.commit_point(corrected, gap, verdict)
        self.controller.on_accept(gap, verdict, False)
        return True

    def waste(self, solutions, speculative: bool = False) -> None:
        """Mark discarded solutions (their cost is already on the clock).

        *speculative* routes the cost onto the speculation-economics
        ledger as well (forward/combined predictions that missed). Spans
        are tagged ``speculative_waste`` without overwriting a specific
        failure cause recorded by the verify phase.
        """
        rec = self.recorder
        for sol in solutions:
            self.stats.wasted_solves += 1
            self.stats.wasted_work += sol.result.work_units
            if speculative:
                self.stats.speculative_wasted_work += sol.result.work_units
            if rec.enabled:
                if speculative:
                    rec.count("speculate.wasted_work", sol.result.work_units)
                rec.tag_span(
                    sol.span_id,
                    outcome=OUTCOME_SPECULATIVE_WASTE,
                    overwrite=False,
                )

    def _predicted_next_step(self, h_current: float) -> float:
        """Best guess at the step the controller will pick after the next
        acceptance: the unclamped LTE-optimal estimate bounded by the ratio
        cap, mirroring :meth:`StepController.on_accept` (ratio cap on faith
        when no estimate exists, e.g. right after a restart)."""
        cap = self.options.step_ratio_max * h_current
        h_unclamped = self.controller.h_unclamped
        guess = cap if not np.isfinite(h_unclamped) else min(h_unclamped, cap)
        return max(guess, 0.25 * h_current)

    def predicted_timepoint(self, history: TimepointHistory, t_new: float) -> Timepoint:
        """Speculative history entry at *t_new* from the polynomial predictor.

        Its charge comes from a charge-only evaluation in lane 0's
        buffers, which that evaluation leaves fit for the next Newton
        solve. No work is booked for it: the cost model
        prices Newton solves only, and this runs on the scheduler thread
        before the stage starts.
        """
        x_hat = history.predict(t_new, self.options.predictor_order)
        q_hat = self.system.charge_at(x_hat, self._lanes[0][0])
        scheme = scheme_coefficients(self.options.method, history, t_new)
        return Timepoint(t_new, x_hat, q_hat, scheme.qdot(q_hat))

    # -- result and trace -------------------------------------------------------

    def run_cost(self) -> float:
        return self.stats.virtual_total

    def _package(self, **fields) -> PipelineResult:
        return PipelineResult(
            waveforms=_build_waveforms(self.system, self.times, self.solutions),
            scheme=self.scheme_name,
            **fields,
        )
