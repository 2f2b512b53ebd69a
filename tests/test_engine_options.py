"""Engine behaviour under option variations (the knobs users turn)."""

import numpy as np
import pytest

from repro.circuit.circuit import Circuit
from repro.circuit.sources import Pulse, Sin
from repro.core.wavepipe import run_wavepipe
from repro.engine.transient import run_transient
from repro.utils.options import SimOptions


class TestMaxStep:
    def test_max_step_honoured(self, rc_circuit):
        result = run_transient(rc_circuit, 8e-6, options=SimOptions(max_step=0.2e-6))
        assert result.step_sizes.max() <= 0.2e-6 * (1 + 1e-9)

    def test_max_step_honoured_by_wavepipe(self, rc_circuit):
        result = run_wavepipe(
            rc_circuit, 8e-6, scheme="backward", threads=3,
            options=SimOptions(max_step=0.2e-6),
        )
        # chain extensions must respect the absolute ceiling per gap;
        # the recorded per-commit gaps are what max_step constrains
        assert np.all(np.diff(result.times) <= 3 * 0.2e-6 + 1e-12)

    def test_smaller_max_step_more_points(self, rc_circuit):
        loose = run_transient(rc_circuit, 8e-6)
        capped = run_transient(rc_circuit, 8e-6, options=SimOptions(max_step=0.05e-6))
        assert capped.stats.accepted_points > loose.stats.accepted_points


class TestMethodChoice:
    @pytest.mark.parametrize("method", ["be", "trap", "gear2"])
    def test_all_methods_run_wavepipe(self, method, rc_circuit):
        options = SimOptions(method=method)
        result = run_wavepipe(
            rc_circuit, 6e-6, scheme="combined", threads=3, options=options
        )
        expected = 1.0 - np.exp(-(5e-6 - 1e-6) / 1e-6)
        assert result.waveforms.voltage("out").at(5e-6) == pytest.approx(
            expected, abs=0.03
        )

    def test_gear2_on_oscillatory(self, rlc_circuit):
        # BDF2 elongates oscillation periods at coarse steps (a classic
        # property); frequencies must converge together as reltol tightens.
        trap = run_transient(rlc_circuit, 1.5e-6, options=SimOptions(method="trap", reltol=1e-5))
        gear = run_transient(rlc_circuit, 1.5e-6, options=SimOptions(method="gear2", reltol=1e-5))
        f_trap = trap.waveforms.voltage("out").slice(0.1e-6, 1.5e-6).frequency(1.0)
        f_gear = gear.waveforms.voltage("out").slice(0.1e-6, 1.5e-6).frequency(1.0)
        assert f_gear == pytest.approx(f_trap, rel=0.02)
        # and the coarse-step bias has the known sign: gear2 runs slow
        coarse = run_transient(rlc_circuit, 1.5e-6, options=SimOptions(method="gear2", reltol=1e-3))
        f_coarse = coarse.waveforms.voltage("out").slice(0.1e-6, 1.5e-6).frequency(1.0)
        assert f_coarse < f_trap * 1.005


class TestSyncOverhead:
    def test_sync_overhead_reduces_speedup_monotonically(self):
        from repro.circuits.digital import inverter_chain
        from repro.core.wavepipe import compare_with_sequential
        from repro.mna.compiler import compile_circuit

        speedups = []
        for sync in (0.0, 50.0, 500.0):
            options = SimOptions(sync_overhead=sync)
            compiled = compile_circuit(inverter_chain(stages=4), options)
            report = compare_with_sequential(
                compiled, 20e-9, scheme="backward", threads=2, options=options
            )
            speedups.append(report.speedup)
        assert speedups[0] >= speedups[1] >= speedups[2]


class TestTrtol:
    def test_trtol_trades_points_for_error(self, sine_rc_circuit):
        trusting = run_transient(sine_rc_circuit, 40e-6, options=SimOptions(trtol=7.0))
        skeptical = run_transient(sine_rc_circuit, 40e-6, options=SimOptions(trtol=1.0))
        assert skeptical.stats.accepted_points > trusting.stats.accepted_points


class TestPredictorOrder:
    def test_first_order_predictor_runs(self, rc_circuit):
        options = SimOptions(predictor_order=1, newton_guess="predictor")
        result = run_transient(rc_circuit, 6e-6, options=options)
        expected = 1.0 - np.exp(-4.0)
        assert result.waveforms.voltage("out").at(5e-6) == pytest.approx(
            expected, abs=0.02
        )


class TestGuardKnobs:
    def test_guard_disabled_means_no_salvage(self):
        from repro.circuits.digital import ring_oscillator

        options = SimOptions(backward_guard_fraction=0.0)
        result = run_wavepipe(
            ring_oscillator(3), 8e-9, scheme="backward", threads=2, options=options
        )
        assert result.stats.guard_salvages == 0

    def test_spec_gate_disabled_forces_speculation(self, rc_circuit):
        # spec_min_iters=0 lets even 1-iteration linear solves speculate
        options = SimOptions(spec_min_iters=0.0)
        result = run_wavepipe(
            rc_circuit, 8e-6, scheme="forward", threads=2, options=options
        )
        assert result.stats.speculative_solves > 0
