"""Backward waveform pipelining (WavePipe scheme 1).

Sequential LTE-controlled simulation wastes work in two distinct ways that
idle cores can absorb, and both amount to computing *additional time
points backwards in time from the farthest target* — the scheme the
abstract describes as "independent computing tasks that contribute to a
larger future time step by moving backwards in time":

1. **Ratio-bound ramping.** The next step may not exceed
   ``step_ratio_max`` times the last one, so after every breakpoint,
   rejection or sharp feature the step rebuilds geometrically, one solve
   at a time. A backward stage launches the whole geometric chain at
   once: targets ``t + g1, t + g1 + g2, ...`` with ``g1`` the sequential
   step and ``g_{k+1} <= r * g_k``, every task integrating one-step from
   the same accepted history — hence mutually independent. The chain is
   capped by the a-priori LTE-optimal step (scaled by
   ``lte_cap_margin``) when a trustworthy estimate exists.

2. **LTE rejections.** When the controller's proposal overshoots the
   local error budget, sequential simulation pays a full Newton solve,
   discards it, shrinks and retries. A *guard* point at
   ``backward_guard_fraction`` of the main step — backwards in time from
   it — almost always passes when the main point fails, converting a
   dead rejection cycle into accepted progress. Guards are scheduled
   adaptively: an exponentially weighted rejection-rate estimate decides
   whether the second thread guards (rejection-heavy regions) or extends
   the chain (ramp regions).

Every candidate is verified oldest-first by the routine the sequential
step itself uses
(:meth:`~repro.engine.transient.TransientEngine.verify_ascending`, with
``h_solve`` = the candidate's true one-step integration distance); the
first failure discards the tail as wasted work. Accuracy is therefore
identical to sequential by construction — pipelining changes the
schedule, never the acceptance criteria.
"""

from __future__ import annotations

from repro.core.pipeline import PipelineEngine
from repro.engine.transient import PointTask
from repro.integration.controller import BREAKPOINT_SNAP
from repro.integration.lte import predicted_max_step
from repro.integration.methods import METHOD_ORDER


def plan_backward_targets(
    h_seq: float,
    room: float,
    chain_cap: float | None,
    ratio_max: float,
    max_targets: int,
    guard_fraction: float = 0.0,
    allow_chain: bool = True,
) -> list[float]:
    """Target distances from the current front for one backward stage.

    Returns an ascending list. The first entry may be a guard point below
    the sequential step (*guard_fraction* > 0 and a thread available);
    chain targets above it grow geometrically and respect both the
    breakpoint window (*room*) and *chain_cap* (the freshest available
    LTE-optimal estimate; None means unbounded within the window).
    """
    first = min(h_seq, room)
    if first >= room * (1.0 - BREAKPOINT_SNAP):
        return [room]  # breakpoint stage: land exactly on it, single task
    targets: list[float] = []
    if guard_fraction > 0 and max_targets >= 2:
        targets.append(first * guard_fraction)
    targets.append(first)
    if not allow_chain:
        return targets

    window = room * (1.0 - BREAKPOINT_SNAP)
    cap = window
    if chain_cap is not None:
        # Never cap below the sequential step itself: the controller
        # already vetted it, and the a-priori estimate can be stale.
        cap = min(cap, max(chain_cap, first))
    gap = first
    distance = first
    while len(targets) < max_targets:
        gap = gap * ratio_max
        distance = distance + gap
        if distance >= window:
            if cap >= window:
                # Error budget reaches the breakpoint: land on it exactly.
                targets.append(room)
            break
        if distance > cap:
            break
        targets.append(distance)
    return targets


class BackwardPipeline(PipelineEngine):
    """Backward-pipelined transient engine."""

    scheme_name = "backward"

    # -- stage ------------------------------------------------------------------

    def run_wide_stage(self) -> None:
        controller = self.controller
        h_seq, _ = controller.propose(self.t)
        room = controller.next_breakpoint(self.t) - self.t

        targets, has_guard = self.plan_targets(h_seq, room, self.threads)
        base = self.history.clone()
        force_be = controller.force_be
        solutions = self.solve_stage(
            [PointTask(base, self.t + d, force_be) for d in targets]
        )
        self.stats.clock.advance_stage([s.result.work_units for s in solutions])
        for sol in solutions:
            self.charge_solution(sol)
        self.verify_chain(solutions, targets, has_guard)

    def plan_targets(self, h_seq: float, room: float, budget: int) -> tuple[list[float], bool]:
        """Adaptive target plan for one stage with *budget* threads.

        Returns ``(ascending targets, has_guard)`` — when *has_guard* the
        first target is an insurance point below the sequential step.

        Chain targets beyond the sequential step are scheduled only when
        the controller reports it is **ratio-limited** (its LTE-optimal
        recommendation got clamped by the consecutive-step bound, or it
        is rebuilding after a breakpoint) — in LTE-limited regions points
        beyond the sequential step are known-doomed and the spare threads
        are better spent on the rejection guard.
        """
        controller = self.controller
        if budget <= 1 or controller.force_be:
            single = (
                [min(h_seq, room)]
                if h_seq < room * (1 - BREAKPOINT_SNAP)
                else [room]
            )
            return single, False

        guard = self.options.backward_guard_fraction if self.guard_active else 0.0
        # Throttle chain width when recent extensions keep failing: each
        # rejected extension still inflates the stage maximum (its Newton
        # solve ran), so persistent misses cost real pipelined time.
        if self.chain_budget_scale < 0.25:
            reserve = 2 if guard > 0 else 1
            budget = min(budget, reserve + 1)
        chain_cap: float | None = None
        # Chain extension needs (a) a genuine ramp — a streak of
        # ratio-limited accepts, not an isolated LTE blind spot — and
        # (b) headroom: the LTE-optimal step must sit far beyond the
        # ratio cap (infinite right after a restart). When the optimum
        # hovers near the cap (oscillatory waveforms), extensions land
        # on or past the error budget and feed rejection storms.
        headroom_floor = (
            self.options.chain_headroom_min
            * self.options.step_ratio_max
            * h_seq
        )
        headroom = min(controller.h_unclamped, self.conservative_h_opt)
        allow_chain = controller.ratio_streak >= 2 and headroom >= headroom_floor
        if allow_chain:
            margin = self.options.lte_cap_margin
            chain_cap = margin * headroom
            h_opt = predicted_max_step(
                self.options.method,
                METHOD_ORDER[self.options.method],
                self.history,
                self.system.voltage_rows,
                self.options,
            )
            if h_opt is not None:
                chain_cap = min(chain_cap, margin * h_opt)
        targets = plan_backward_targets(
            h_seq,
            room,
            chain_cap,
            self.options.step_ratio_max,
            budget,
            guard_fraction=guard,
            allow_chain=allow_chain,
        )
        has_guard = guard > 0 and len(targets) >= 2 and targets[0] < min(h_seq, room)
        return targets, has_guard

    # -- verification -------------------------------------------------------------

    def verify_chain(self, solutions, targets, has_guard: bool) -> bool:
        """Verify one stage's backward solutions; True if any candidate failed.

        Splits off the guard, hands the chain to the engine's
        :meth:`~repro.engine.transient.TransientEngine.verify_ascending`
        with the planner's exact per-candidate steps, then does what is
        scheduling policy rather than acceptance: the rejected tail is
        wasted work, and the outcome feeds the EWMAs the next plan reads.
        """
        guard = solutions[0] if has_guard else None
        regular = solutions[1:] if has_guard else solutions
        chain = targets[1:] if has_guard else targets
        gaps = [d - (chain[k - 1] if k else 0.0) for k, d in enumerate(chain)]
        verdicts = self.verify_ascending(
            regular, gaps, guard, targets[0] if has_guard else 0.0
        )
        if verdicts:
            self.note_solve_cost(regular[0].result.iterations)
        for verdict in verdicts:
            if verdict.estimated:
                self.note_h_optimal(verdict.h_optimal)
        accepted = sum(1 for verdict in verdicts if verdict.accepted)
        self.waste(regular[accepted:])
        if len(regular) > 1:
            # Chain extensions are the regular points beyond the first.
            self.note_chain_outcome(len(regular) - 1, max(0, accepted - 1))
        failed = accepted < len(regular)
        self.note_stage_outcome(failed)
        return failed
