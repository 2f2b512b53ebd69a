"""Forward (predictive) waveform pipelining (WavePipe scheme 2).

While thread 1 ("producer") Newton-solves the regular next point
``t + h``, the remaining threads start solving *future* points
``t + 2h, t + 3h, ...`` whose integration history does not exist yet: each
speculative task integrates against the polynomial predictor's estimate of
the missing preceding point (solution extrapolated, charge and charge
derivative derived from it through the integration formula). Speculative
Newton runs with a bounded iteration budget — on real hardware it can only
overlap the producer.

The producer is a one-candidate stage: it goes through the engine's one
accept / reject routine
(:meth:`~repro.engine.transient.TransientEngine.verify_ascending`, with
the rejection guard as its fallback), exactly as the sequential step
does. When its exact solution arrives, each speculative point is
re-solved ("corrective" phase) against the now-exact history, *starting
from its speculative iterate*. If the prediction was good the corrective
phase converges in a Newton step or two — the expensive iterations were
pre-paid in parallel. The final solution satisfies the exact discretised
equations: accuracy and convergence are untouched, exactly as the paper
claims, because speculation only seeds the iterate, never the equations.

Virtual-clock charging: the stage pays ``max(producer, speculative...)``
(they run concurrently) plus the corrective phases serially; discarded
speculation inflates only the concurrent maximum, mirroring real wall
time on an ideal machine.
"""

from __future__ import annotations

from repro.core.pipeline import SPECULATIVE_ITER_CAP, PipelineEngine
from repro.engine.transient import PointTask
from repro.integration.controller import BREAKPOINT_SNAP


class ForwardPipeline(PipelineEngine):
    """Forward-pipelined transient engine (speculation depth = threads - 1)."""

    scheme_name = "forward"

    def run_wide_stage(self) -> None:
        controller = self.controller
        h, hits_bp = controller.propose(self.t)
        base = self.history.clone()
        force_be = controller.force_be

        depth = self._speculation_depth(h, hits_bp)
        producer_task = PointTask(base, self.t + h, force_be)

        # Rejection guard: under rejection pressure one thread computes a
        # fallback point below the producer so a failed producer still
        # leaves accepted progress (shared policy with the backward scheme).
        guard_task = None
        guard_gap = 0.0
        if depth > 0 and self.guard_active:
            guard_gap = h * self.options.backward_guard_fraction
            guard_task = PointTask(base, self.t + guard_gap, force_be)
            depth -= 1

        spec_tasks = []
        if depth > 0:
            # Speculate at the step the controller is *expected* to choose
            # after accepting the producer — constant-step speculation
            # forfeits the ramp and loses to sequential on growing steps.
            h_next = self._predicted_next_step(h)
            room = controller.next_breakpoint(self.t) - self.t
            spec_hist = base.clone()
            t_prev = self.t + h
            for _ in range(depth):
                t_i = t_prev + h_next
                if t_i > self.t + room * (1.0 - BREAKPOINT_SNAP):
                    break
                try:
                    predicted = self.predicted_timepoint(spec_hist, t_prev)
                except Exception:
                    break  # prediction impossible (degenerate history)
                spec_hist = spec_hist.clone()
                spec_hist.append(predicted)
                spec_tasks.append(
                    PointTask(
                        spec_hist,
                        t_i,
                        False,
                        iter_cap=SPECULATIVE_ITER_CAP,
                    )
                )
                t_prev = t_i
                h_next = self._predicted_next_step(h_next)

        guard_list = [guard_task] if guard_task else []
        solutions = self.solve_stage([producer_task] + guard_list + spec_tasks)
        producer = solutions[0]
        guard = solutions[1] if guard_task else None
        speculative = solutions[1 + len(guard_list) :]
        # Speculation (and the guard) is bounded by the producer on real
        # hardware (threads flip to corrective / idle when the exact
        # history lands); charge only the overshoot past the producer.
        self.stats.clock.advance_producer_stage(
            producer.result.work_units,
            [s.result.work_units for s in solutions[1:]],
        )
        for sol in solutions:
            self.charge_solution(sol)
        self.stats.speculative_solves += len(speculative)
        self.stats.speculative_work += sum(
            s.result.work_units for s in speculative
        )

        # -- producer verification: the engine's one accept/reject path ----
        verdicts = self.verify_ascending([producer], [h], guard, guard_gap)
        accepted = bool(verdicts) and verdicts[0].accepted
        self.note_stage_outcome(not accepted)
        if not accepted:
            self.waste(speculative, speculative=True)
            return
        self.note_solve_cost(producer.result.iterations)

        # -- corrective cascade against exact history ------------------------
        for depth, sol in enumerate(speculative, start=1):
            if not self.corrective_commit(sol, depth):
                return

    # -- helpers --------------------------------------------------------------

    def _speculation_depth(self, h: float, hits_bp: bool) -> int:
        """How many future points this stage may speculate on."""
        if self.threads < 2 or self.controller.force_be or hits_bp:
            return 0
        if self.history.era_length < 2:
            return 0  # predictor would be constant: speculation is hopeless
        if not self.speculation_pays:
            return 0  # corrective would cost as much as a fresh solve
        # Depth is earned: deep speculation multiplies prediction distance,
        # so poor recent hit rates cap it (the planning loop additionally
        # trims against the breakpoint window).
        return min(self.threads - 1, self.spec_depth_limit)
