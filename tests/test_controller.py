"""Step controller state machine."""

import numpy as np
import pytest

from repro.errors import TimestepError
from repro.instrument import Recorder
from repro.integration.controller import StepController
from repro.integration.lte import LteVerdict
from repro.utils.options import SimOptions


def make(h0=1e-9, tstop=1e-6, breakpoints=None, **opt_kw):
    options = SimOptions(**opt_kw)
    return StepController(options, tstop, h0, breakpoints)


def verdict(accepted=True, ratio=0.5, h_opt=2e-9, estimated=True):
    return LteVerdict(accepted, ratio, h_opt, estimated)


class TestPropose:
    def test_initial_proposal(self):
        ctrl = make(h0=1e-9)
        h, hits = ctrl.propose(0.0)
        assert h == pytest.approx(1e-9)
        assert not hits
        assert ctrl.force_be  # cold start

    def test_clips_to_breakpoint(self):
        ctrl = make(h0=1e-9, breakpoints=[5e-10, 1e-6])
        h, hits = ctrl.propose(0.0)
        assert hits
        assert h == pytest.approx(5e-10)

    def test_snaps_onto_near_breakpoint(self):
        ctrl = make(h0=0.95e-9, breakpoints=[1e-9, 1e-6])
        h, hits = ctrl.propose(0.0)
        assert hits
        assert h == pytest.approx(1e-9)

    def test_max_step_honoured(self):
        ctrl = make(h0=1e-9, max_step=2e-10)
        h, _ = ctrl.propose(0.0)
        assert h <= 2e-10

    def test_next_breakpoint_lookup(self):
        ctrl = make(breakpoints=[1e-7, 3e-7], tstop=1e-6)
        assert ctrl.next_breakpoint(0.0) == pytest.approx(1e-7)
        assert ctrl.next_breakpoint(1e-7) == pytest.approx(3e-7)
        assert ctrl.next_breakpoint(5e-7) == pytest.approx(1e-6)

    def test_validation(self):
        with pytest.raises(TimestepError):
            make(h0=0.0)
        with pytest.raises(TimestepError):
            make(tstop=-1.0)


class TestAccept:
    def test_growth_capped_by_ratio(self):
        ctrl = make(h0=1e-9, step_ratio_max=2.0)
        ctrl.on_accept(1e-9, verdict(h_opt=100e-9), False)
        assert ctrl.h_rec == pytest.approx(2e-9)
        assert ctrl.ratio_limited
        assert not ctrl.force_be

    def test_lte_limited_recommendation(self):
        ctrl = make(h0=1e-9)
        ctrl.on_accept(1e-9, verdict(h_opt=1.5e-9), False)
        assert ctrl.h_rec == pytest.approx(1.5e-9)
        assert not ctrl.ratio_limited
        assert ctrl.h_unclamped == pytest.approx(1.5e-9)

    def test_unestimated_grows_on_faith(self):
        ctrl = make(h0=1e-9)
        ctrl.on_accept(1e-9, verdict(estimated=False), False)
        assert ctrl.h_rec == pytest.approx(2e-9)
        assert ctrl.ratio_limited
        assert ctrl.h_unclamped == np.inf

    def test_ratio_streak_accumulates_and_resets(self):
        ctrl = make(h0=1e-9)
        start = ctrl.ratio_streak
        ctrl.on_accept(1e-9, verdict(h_opt=100e-9), False)
        ctrl.on_accept(2e-9, verdict(h_opt=100e-9), False)
        assert ctrl.ratio_streak == start + 2
        ctrl.on_accept(4e-9, verdict(h_opt=4.1e-9), False)  # LTE-limited
        assert ctrl.ratio_streak == 0

    def test_breakpoint_triggers_restart(self):
        ctrl = make(h0=1e-9)
        ctrl.on_accept(1e-9, verdict(), True)
        assert ctrl.force_be
        assert ctrl.ratio_limited


class TestRejectAndFailure:
    def test_reject_shrinks(self):
        ctrl = make(h0=8e-9)
        ctrl.on_reject(8e-9, verdict(accepted=False, ratio=4.0, h_opt=3e-9))
        assert ctrl.h_rec == pytest.approx(3e-9)
        assert ctrl.rejections == 1
        assert not ctrl.ratio_limited
        assert ctrl.ratio_streak == 0

    def test_reject_floor_is_shrink_fraction(self):
        ctrl = make(h0=8e-9, step_shrink=0.25)
        ctrl.on_reject(8e-9, verdict(accepted=False, ratio=1e9, h_opt=1e-15))
        assert ctrl.h_rec == pytest.approx(2e-9)

    def test_newton_failure_shrinks_hard(self):
        ctrl = make(h0=8e-9, step_shrink=0.25)
        ctrl.on_newton_failure(8e-9)
        assert ctrl.h_rec == pytest.approx(2e-9)
        assert ctrl.newton_failures == 1

    def test_each_shrink_counts_once(self):
        rec = Recorder(capture_events=False)
        ctrl = make(h0=8e-9, instrument=rec)
        ctrl.on_reject(8e-9, verdict(accepted=False, ratio=4.0, h_opt=3e-9))
        ctrl.on_newton_failure(ctrl.h_rec)
        assert {k: v for k, v in rec.counters.items() if k.startswith("controller.")} == {
            "controller.reject.lte_reject": 1,
            "controller.reject.newton_fail": 1,
        }

    def test_underflow_raises(self):
        ctrl = make(h0=1e-9, tstop=1e-6, min_step_fraction=1e-6)
        with pytest.raises(TimestepError, match="underflow"):
            for _ in range(100):
                ctrl.on_newton_failure(ctrl.h_rec)

    def test_restart_resets_state(self):
        ctrl = make(h0=1e-9)
        ctrl.on_accept(1e-9, verdict(h_opt=1.2e-9), False)
        ctrl.restart()
        assert ctrl.force_be
        assert ctrl.ratio_limited
        assert ctrl.ratio_streak == 1
        assert ctrl.h_rec < 1.2e-9
