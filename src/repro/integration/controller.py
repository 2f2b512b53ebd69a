"""Adaptive step-size controller (the sequential baseline's policy).

Encapsulates the SPICE time-stepping state machine:

* recommended next step from the last LTE verdict, clamped by the
  consecutive-step **ratio bound** ``step_ratio_max`` (the conservatism
  WavePipe's backward pipelining is designed to overcome),
* shrink-and-retry on LTE rejection and on Newton failure,
* breakpoint clipping and a backward-Euler restart after each breakpoint
  (integration history is untrustworthy across a source corner),
* minimum-step protection that raises
  :class:`~repro.errors.TimestepError` instead of looping forever.
"""

from __future__ import annotations

import enum

import numpy as np

from repro.errors import TimestepError
from repro.instrument.events import (
    OUTCOME_LTE_REJECT,
    OUTCOME_NEWTON_FAIL,
)
from repro.instrument.recorder import resolve_recorder
from repro.integration.lte import LteVerdict
from repro.utils.options import SimOptions

#: Relative slack when deciding a step "lands on" a breakpoint.
BREAKPOINT_SNAP = 0.1


class RejectReason(enum.Enum):
    """Structured cause of a shrink-and-retry transition.

    The enum value doubles as the span outcome tag and the suffix of the
    ``controller.reject.<value>`` counter, so the diagnosis taxonomy in
    ``repro explain`` and the counters literally cannot drift apart.
    ``STALL_GUARD`` is reserved for the Newton bypass stall fallback
    (booked by the solver as ``newton.bypass_fallback``); the controller
    itself only ever shrinks for the first two.
    """

    LTE = OUTCOME_LTE_REJECT
    NEWTON_FAIL = OUTCOME_NEWTON_FAIL
    STALL_GUARD = "stall_guard"

    @property
    def describe(self) -> str:
        """Human phrasing used in error messages."""
        return _REJECT_DESCRIPTIONS[self]

    @property
    def counter(self) -> str:
        """Canonical counter channel for this cause."""
        return f"controller.reject.{self.value}"


_REJECT_DESCRIPTIONS = {
    RejectReason.LTE: "LTE rejection",
    RejectReason.NEWTON_FAIL: "Newton failure",
    RejectReason.STALL_GUARD: "bypass stall fallback",
}


class StepController:
    """Step-size policy for one transient run."""

    def __init__(
        self,
        options: SimOptions,
        tstop: float,
        h_initial: float,
        breakpoints: np.ndarray | None = None,
    ):
        if tstop <= 0:
            raise TimestepError("tstop must be positive")
        if h_initial <= 0:
            raise TimestepError("initial step must be positive")
        self.options = options
        self._rec = resolve_recorder(options.instrument)
        self.tstop = tstop
        self.min_step = options.min_step_fraction * tstop
        self.max_step = options.max_step if options.max_step else tstop
        self.breakpoints = (
            np.array(sorted(set(map(float, breakpoints))))
            if breakpoints is not None
            else np.array([tstop])
        )
        self.h_rec = min(h_initial, self.max_step)
        self._force_be = True  # cold start: no qdot/second point yet
        self.rejections = 0
        self.newton_failures = 0
        #: Cause of the most recent shrink-and-retry, or None before any.
        self.last_reject: RejectReason | None = None
        #: True when the latest recommendation was clamped by the
        #: consecutive-step ratio bound rather than by LTE — exactly the
        #: regime WavePipe's backward chain extension targets.
        self.ratio_limited = True
        #: Consecutive ratio-limited accepts. A single ratio-limited point
        #: can be an LTE-estimate blind spot (curvature inflection); a
        #: *streak* means a genuine step ramp, which is the regime where
        #: chain extension is safe and profitable.
        self.ratio_streak = 1
        #: The unclamped (LTE-optimal) step from the latest verdict, or
        #: +inf when no estimate existed; backward pipelining caps its
        #: chain with it.
        self.h_unclamped = float("inf")

    # -- queries ---------------------------------------------------------------

    @property
    def force_be(self) -> bool:
        """True when the next solve must use backward Euler (restart)."""
        return self._force_be

    def next_breakpoint(self, t: float) -> float:
        """First breakpoint strictly after *t* (tstop acts as the last one)."""
        idx = np.searchsorted(self.breakpoints, t, side="right")
        if idx >= self.breakpoints.size:
            return self.tstop
        return float(self.breakpoints[idx])

    def propose(self, t: float) -> tuple[float, bool]:
        """Step to attempt from time *t*.

        Returns ``(h, lands_on_breakpoint)``. The step is clipped so the
        target never overshoots the next breakpoint, and stretched onto
        the breakpoint when it would otherwise leave a sliver behind.
        """
        bp = self.next_breakpoint(t)
        room = bp - t
        if room <= 0:
            raise TimestepError(f"no room to step at t={t} (breakpoint at {bp})")
        h = min(self.h_rec, self.max_step)
        if h >= room * (1.0 - BREAKPOINT_SNAP):
            return room, True
        return h, False

    # -- transitions -------------------------------------------------------------

    def on_accept(self, h_taken: float, verdict: LteVerdict, hit_breakpoint: bool) -> None:
        """Update the recommendation after an accepted point."""
        self._force_be = False
        cap = self.options.step_ratio_max * h_taken
        if verdict.estimated:
            self.h_unclamped = verdict.h_optimal
            h_new = min(verdict.h_optimal, cap)
            self.ratio_limited = verdict.h_optimal > cap
        else:
            self.h_unclamped = float("inf")
            h_new = cap
            self.ratio_limited = True  # growing on faith: ratio is the binding bound
        self.ratio_streak = self.ratio_streak + 1 if self.ratio_limited else 0
        self.h_rec = float(np.clip(h_new, self.min_step, self.max_step))
        if self._rec.enabled:
            self._rec.count("controller.accepts")
            if self.ratio_limited:
                self._rec.count("controller.ratio_limited_accepts")
            self._rec.observe("controller.h_taken", h_taken)
        if hit_breakpoint:
            self.restart()

    def on_reject(self, h_taken: float, verdict: LteVerdict) -> None:
        """Shrink after an LTE rejection; raises below the minimum step."""
        self.rejections += 1
        self.ratio_limited = False  # LTE is binding here, not the ratio bound
        self.ratio_streak = 0
        self.h_unclamped = verdict.h_optimal
        h_new = max(
            h_taken * self.options.step_shrink,
            min(verdict.h_optimal, 0.9 * h_taken),
        )
        self._set_retry(h_new, RejectReason.LTE)

    def on_newton_failure(self, h_taken: float) -> None:
        """Shrink hard after a Newton convergence failure."""
        self.newton_failures += 1
        self.ratio_limited = False
        self.ratio_streak = 0
        self._set_retry(h_taken * self.options.step_shrink, RejectReason.NEWTON_FAIL)

    def restart(self, h: float | None = None) -> None:
        """Re-enter cold-start mode (after a breakpoint): BE + small step."""
        self._force_be = True
        self.ratio_limited = True  # the collapsed step must ramp back up
        self.ratio_streak = 1
        self.h_unclamped = float("inf")
        if self._rec.enabled:
            self._rec.count("controller.restarts")
        if h is None:
            h = max(self.h_rec * self.options.step_shrink, self.min_step)
        self.h_rec = float(np.clip(h, self.min_step, self.max_step))

    def _set_retry(self, h_new: float, reason: RejectReason) -> None:
        self.last_reject = reason
        if self._rec.enabled:
            self._rec.count(reason.counter)
        if h_new < self.min_step:
            raise TimestepError(
                f"step underflow after {reason.describe}: needed {h_new:.3e}s, "
                f"minimum is {self.min_step:.3e}s"
            )
        self.h_rec = h_new
