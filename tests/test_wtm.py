"""WTM coordinator: outer iterations, cost accounting, failure modes.

Agreement with the monolithic reference lives in
``tests/test_wtm_oracle.py``; here the coordinator's additions
(virtual-clock costing, per-partition WavePipe pipelining, windowing,
under-relaxation, chaos compatibility) must not move the answer.
"""

import numpy as np
import pytest

from repro.circuit.circuit import Circuit
from repro.circuit.sources import Pulse
from repro.circuits.multiblock import bridged_rc_blocks, mixed_rate_blocks
from repro.errors import ConvergenceError, SimulationError
from repro.partition import manifest_from_node_sets, partition_circuit, run_wtm
from repro.utils.options import SimOptions
from repro.verify.chaos import ChaosExecutor
from repro.waveform.waveform import compare, worst_deviation

TSTOP = 40e-9


def rc_bridge() -> Circuit:
    """Two pulsed RC blocks joined by a weak bridge (the canonical cut)."""
    c = Circuit("wtm-rc-bridge")
    c.add_vsource("V1", "a0", "0", Pulse(0.0, 1.0, delay=1e-9, rise=1e-9,
                                         fall=1e-9, width=8e-9, period=20e-9))
    c.add_resistor("R1", "a0", "a1", 1e3)
    c.add_capacitor("C1", "a1", "0", 1e-12)
    c.add_resistor("RBR", "a1", "b0", 2e5)
    c.add_resistor("R2", "b0", "b1", 1e3)
    c.add_capacitor("C2", "b1", "0", 1e-12)
    c.add_vsource("V2", "b2", "0", Pulse(0.0, 1.0, delay=11e-9, rise=1e-9,
                                         fall=1e-9, width=8e-9, period=20e-9))
    c.add_resistor("R3", "b2", "b1", 1e3)
    return c



class TestCostAccounting:
    def test_jacobi_virtual_below_serial(self):
        res = run_wtm(rc_bridge(), TSTOP, 2, mode="jacobi")
        assert res.converged
        assert res.stats.virtual_total < res.stats.serial_total

    def test_seidel_virtual_equals_serial(self):
        res = run_wtm(rc_bridge(), TSTOP, 2, mode="seidel")
        assert res.stats.virtual_total == pytest.approx(res.stats.serial_total)

    def test_pipelined_partitions_cut_virtual_cost(self):
        circuit = bridged_rc_blocks(blocks=3, rungs=3)
        plain = run_wtm(circuit, TSTOP, 3, mode="seidel")
        piped = run_wtm(circuit, TSTOP, 3, mode="seidel",
                        scheme="combined", threads=2)
        assert piped.converged
        # Pipelining is the only difference; it may only help the clock.
        # (Under the boundary-grid step cap the speculative schemes often
        # break even, so equality is a legitimate outcome.)
        assert piped.stats.virtual_total <= plain.stats.virtual_total

    def test_multirate_beats_capped_blocks_on_rate_disparity(self):
        circuit = mixed_rate_blocks(blocks=4, rungs=2)
        capped = run_wtm(circuit, TSTOP, 4, mode="jacobi")
        free = run_wtm(circuit, TSTOP, 4, mode="jacobi", multirate=True)
        assert capped.converged and free.converged
        assert free.stats.serial_total < capped.stats.serial_total


class TestConvergenceHandling:
    def strong_cut(self):
        """A manifest that severs a strong intra-ladder coupling."""
        circuit = rc_bridge()
        return circuit, manifest_from_node_sets(
            circuit, [{"a0", "a1", "b0"}, {"b1", "b2"}]
        )

    def test_strict_raises_convergence_error(self):
        circuit, manifest = self.strong_cut()
        with pytest.raises(ConvergenceError, match="WTM"):
            run_wtm(circuit, TSTOP, manifest=manifest, max_outer=2)

    def test_non_strict_reports_instead(self):
        circuit, manifest = self.strong_cut()
        res = run_wtm(circuit, TSTOP, manifest=manifest, max_outer=2,
                      strict=False)
        assert not res.converged
        assert res.residuals and res.residuals[-1] > 5e-4
        assert res.window_iterations == [2]

    def test_residuals_contract_on_weak_cut(self):
        res = run_wtm(rc_bridge(), TSTOP, 2, mode="seidel")
        assert res.converged
        assert res.residuals[-1] <= 5e-4
        assert res.residuals[-1] < res.residuals[0]


class TestWindowingAndRelaxation:
    def test_windowed_run_matches_single_window(self):
        circuit = rc_bridge()
        # Tight block tolerances: windowed solves lose the Pulse
        # breakpoint metadata (sources are re-expressed as sampled
        # waveforms in window-local time), so at the default reltol the
        # step controller's corner placement alone costs a few 1e-3.
        options = SimOptions(reltol=1e-5)
        one = run_wtm(circuit, TSTOP, 2, mode="seidel", options=options,
                      wtm_tol=1e-4)
        four = run_wtm(circuit, TSTOP, 2, mode="seidel", windows=4,
                       options=options, wtm_tol=1e-4)
        assert four.converged
        assert len(four.window_iterations) == 4
        # Solution nodes only: windowed solves re-express sources as
        # sampled waveforms, so raw drive nodes pick up corner-sampling
        # detail that the RC filtering never lets into the solution.
        deviations = compare(one.waveforms, four.waveforms,
                             names=["v(a1)", "v(b0)", "v(b1)"])
        worst = worst_deviation(deviations)
        # Each window restarts the integrator from node_ics, which
        # carries a startup transient of a few 1e-3 decaying within one
        # time constant of the restart; the rms bound pins it as a
        # localised blip, not a drifting iterate.
        assert worst.max_relative < 5e-3
        assert all(d.rms < 5e-4 for d in deviations)

    def test_under_relaxation_converges(self):
        res = run_wtm(rc_bridge(), TSTOP, 2, relax=0.7)
        assert res.converged
        assert res.relax == 0.7

    def test_windows_refused_with_inductors(self):
        c = rc_bridge()
        c.add_inductor("L1", "b1", "0", 1e-9)
        with pytest.raises(SimulationError, match="inductive branch"):
            run_wtm(c, TSTOP, 2, windows=2)


class TestChaosCompatibility:
    def test_jacobi_result_immune_to_adversarial_scheduling(self):
        circuit = bridged_rc_blocks(blocks=3, rungs=2)
        plain = run_wtm(circuit, TSTOP, 3, mode="jacobi")
        chaotic = run_wtm(circuit, TSTOP, 3, mode="jacobi",
                          executor=ChaosExecutor(seed=1234))
        assert chaotic.converged
        np.testing.assert_array_equal(plain.times, chaotic.times)
        for name in plain.waveforms.names:
            np.testing.assert_array_equal(
                plain.waveforms[name].values, chaotic.waveforms[name].values
            )


class TestValidation:
    def test_rejects_unknown_mode(self):
        with pytest.raises(SimulationError, match="mode"):
            run_wtm(rc_bridge(), TSTOP, 2, mode="sor")

    def test_rejects_bad_relax(self):
        for relax in (0.0, 1.5):
            with pytest.raises(SimulationError, match="relax"):
                run_wtm(rc_bridge(), TSTOP, 2, relax=relax)

    def test_rejects_bad_counts(self):
        with pytest.raises(SimulationError, match="max_outer"):
            run_wtm(rc_bridge(), TSTOP, 2, max_outer=0)
        with pytest.raises(SimulationError, match="grid_points"):
            run_wtm(rc_bridge(), TSTOP, 2, grid_points=1)
        with pytest.raises(SimulationError, match="windows"):
            run_wtm(rc_bridge(), TSTOP, 2, windows=0)

    def test_rejects_compiled_circuit(self):
        from repro.mna.compiler import compile_circuit

        with pytest.raises(SimulationError, match="raw Circuit"):
            run_wtm(compile_circuit(rc_bridge()), TSTOP, 2)


class TestFacadeIntegration:
    def test_partitions_keyword_promotes_transient_to_wtm(self):
        from repro import simulate

        res = simulate(rc_bridge(), tstop=TSTOP, partitions=2)
        assert res.analysis == "wtm"
        assert res.raw.converged
        assert res.raw.partitions == 2

    def test_explicit_wtm_analysis(self):
        from repro import simulate

        res = simulate(rc_bridge(), analysis="wtm", tstop=TSTOP,
                       partitions=2, mode="jacobi", scheme="combined",
                       threads=2)
        assert res.raw.mode == "jacobi"
        assert res.raw.stats.virtual_total < res.raw.stats.serial_total

    def test_result_matches_direct_call(self):
        from repro import simulate

        direct = run_wtm(rc_bridge(), TSTOP, 2)
        facade = simulate(rc_bridge(), tstop=TSTOP, partitions=2)
        for name in direct.waveforms.names:
            np.testing.assert_array_equal(
                direct.waveforms[name].values,
                facade.waveforms[name].values,
            )


class TestAutoPartitioning:
    def test_default_manifest_comes_from_partitioner(self):
        res = run_wtm(rc_bridge(), TSTOP, 2)
        assert res.manifest is not None
        assert res.manifest.requested == 2
        expected = partition_circuit(rc_bridge(), 2)
        assert res.manifest.to_json() == expected.to_json()
