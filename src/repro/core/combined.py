"""Combined backward + forward pipelining (WavePipe scheme 3).

Threads split between the two mechanisms: up to ``threads - 1`` backward
tasks (guard + ramp chain, planned exactly as in
:class:`~repro.core.backward.BackwardPipeline`) plus one forward-
speculative task *beyond* the stage's leading target, integrating against
a predicted history entry for it.

The split is adaptive by construction: in ratio-bound regions the
backward plan uses its full budget and the speculative point extends the
front; in smooth LTE-limited regions the backward plan collapses to a
single target and the scheme behaves like pure forward pipelining. This
is why the paper runs the combined scheme at 3+ threads.
"""

from __future__ import annotations

from repro.core.backward import BackwardPipeline
from repro.core.pipeline import SPECULATIVE_ITER_CAP
from repro.engine.transient import PointTask
from repro.integration.controller import BREAKPOINT_SNAP


class CombinedPipeline(BackwardPipeline):
    """Backward guard/ramp tasks plus one forward-speculative front task."""

    scheme_name = "combined"

    def run_wide_stage(self) -> None:
        controller = self.controller
        h_seq, _ = controller.propose(self.t)
        room = controller.next_breakpoint(self.t) - self.t

        backward_budget = max(1, self.threads - 1)
        targets, has_guard = self.plan_targets(h_seq, room, backward_budget)
        base = self.history.clone()
        force_be = controller.force_be
        tasks = [PointTask(base, self.t + d, force_be) for d in targets]

        chain_targets = targets[1:] if has_guard else targets
        spare_threads = self.threads - len(targets)
        spec_task = self._plan_speculation(
            base, chain_targets, room, force_be, spare_threads
        )
        solutions = self.solve_stage(tasks + ([spec_task] if spec_task else []))
        backward_solutions = solutions[: len(tasks)]
        speculative = solutions[len(tasks) :]

        backward_costs = [s.result.work_units for s in backward_solutions]
        if speculative:
            # The forward task overlaps the backward stage; only its
            # overshoot past the widest backward task is exposed.
            self.stats.clock.advance_producer_stage(
                max(backward_costs),
                [s.result.work_units for s in speculative],
            )
        else:
            self.stats.clock.advance_stage(backward_costs)
        for sol in solutions:
            self.charge_solution(sol)
        self.stats.speculative_solves += len(speculative)
        self.stats.speculative_work += sum(
            s.result.work_units for s in speculative
        )

        failed = self.verify_chain(backward_solutions, targets, has_guard)
        if failed or not speculative:
            self.waste(speculative, speculative=True)
            return
        self.corrective_commit(speculative[0])

    # -- helpers ------------------------------------------------------------------

    def _plan_speculation(self, base, targets, room, force_be, spare_threads):
        """Build the forward task past the leading backward target.

        Speculation is only worthwhile in the **LTE-limited** regime
        (single-target backward plan): there the predicted next step is
        trustworthy and the prediction distance is one step. Past a ramped
        multi-target chain front the extrapolation is hopeless and the
        chain's own acceptance risk would waste the speculative solve
        almost every stage — measured, not assumed (see the ablation
        bench).
        """
        if spare_threads < 1 or force_be or self.history.era_length < 2:
            return None
        if self.controller.ratio_limited or len(targets) > 1:
            return None
        if not self.speculation_pays:
            return None
        front = targets[-1]
        if front >= room * (1.0 - BREAKPOINT_SNAP):
            return None
        spec_gap = min(
            self._predicted_next_step(front),
            room * (1.0 - BREAKPOINT_SNAP) - front,
        )
        if spec_gap <= 0:
            return None
        try:
            predicted = self.predicted_timepoint(base, self.t + front)
        except Exception:
            return None
        spec_hist = base.clone()
        spec_hist.append(predicted)
        return PointTask(
            spec_hist,
            self.t + front + spec_gap,
            False,
            iter_cap=SPECULATIVE_ITER_CAP,
        )
