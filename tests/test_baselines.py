"""Baselines: waveform relaxation (as a WTM configuration) and the
fine-grained Amdahl model."""

import pytest

from repro.baselines.finegrained import (
    MATRIX_SPEEDUP_CAP,
    fine_grained_curve,
    fine_grained_estimate,
    work_split,
)
from repro.circuits.digital import inverter_chain, ring_oscillator
from repro.circuits.interconnect import rc_ladder
from repro.engine.transient import run_transient
from repro.errors import SimulationError
from repro.mna.compiler import compile_circuit
from repro.mna.system import MnaSystem
from repro.partition import manifest_from_node_sets, partition_circuit, run_wtm


class TestPartitioning:
    def test_partition_covers_all_nodes(self):
        c = rc_ladder(sections=8)
        manifest = partition_circuit(c, 4)
        covered = [n for part in manifest.partitions for n in part.nodes]
        assert sorted(covered) == sorted(c.nodes())
        assert len(manifest) == 4


class TestWaveformRelaxation:
    """WR is run_wtm's degenerate configuration: Gauss-Jacobi sweeps on a
    fixed cut with sequential block solves (relative tolerances: the
    inverters swing 3 V)."""

    @staticmethod
    def relax(circuit, tstop, node_sets, **kwargs):
        return run_wtm(
            circuit, tstop,
            manifest=manifest_from_node_sets(circuit, node_sets),
            mode="jacobi", strict=False, **kwargs,
        )

    def test_unidirectional_chain_converges(self):
        circuit = inverter_chain(stages=4, period=10e-9)
        result = self.relax(
            circuit, 12e-9, [{"vdd", "n0", "n1", "n2"}, {"n3", "n4"}],
            max_outer=12, wtm_tol=5e-2 / 3.0,
        )
        assert result.converged
        assert result.outer_iterations <= 8

    def test_chain_result_close_to_direct(self):
        circuit = inverter_chain(stages=4, period=10e-9)
        result = self.relax(
            circuit, 12e-9, [{"vdd", "n0", "n1", "n2"}, {"n3", "n4"}],
            max_outer=12, wtm_tol=5e-2 / 3.0,
        )
        direct = run_transient(circuit, 12e-9)
        # WR timing error accumulates through the chain; assert levels and
        # edge count rather than pointwise agreement.
        for name in ("v(n2)", "v(n4)"):
            e_wr = result.waveforms[name].crossings(1.5)
            e_direct = direct.waveforms[name].crossings(1.5)
            assert e_wr.size == e_direct.size

    def test_feedback_loop_fails_to_converge(self):
        """The abstract's contrast: relaxation jeopardises convergence on
        tightly coupled circuits; WavePipe (direct method) does not."""
        circuit = ring_oscillator(stages=5)
        result = self.relax(
            circuit, 10e-9, [{"n0", "n1", "n2"}, {"n3", "n4", "vdd"}],
            max_outer=8, wtm_tol=1e-2 / 3.0,
        )
        assert not result.converged
        # residuals do not contract (oscillator phase never locks)
        assert result.residuals[-1] > 0.5

    def test_parallel_work_less_than_serial(self):
        circuit = rc_ladder(sections=6)
        result = run_wtm(
            circuit, 2e-9, 2, mode="jacobi",
            max_outer=3, wtm_tol=1e-9, strict=False,
        )
        assert result.stats.virtual_total < result.stats.serial_total
        assert result.stats.virtual_total > 0

    def test_bad_mode_rejected(self):
        with pytest.raises(SimulationError):
            run_wtm(rc_ladder(4), 1e-9, 2, mode="chaotic")

    def test_partition_must_cover_nodes(self):
        c = rc_ladder(sections=4)
        with pytest.raises(SimulationError, match="misses"):
            self.relax(c, 1e-9, [{"n1", "n2"}])

    def test_node_in_two_blocks_rejected(self):
        c = rc_ladder(sections=2)
        with pytest.raises(SimulationError, match="two partitions"):
            self.relax(c, 1e-9, [{"n0", "n1", "n2"}, {"n2"}])


class TestFineGrained:
    @pytest.fixture(scope="class")
    def measured(self):
        compiled = compile_circuit(inverter_chain(stages=4))
        seq = run_transient(compiled, 20e-9)
        return MnaSystem(compiled), seq

    def test_work_split_positive(self, measured):
        system, _ = measured
        dev, mat = work_split(system)
        assert dev > 0 and mat > 0

    def test_single_thread_is_baseline(self, measured):
        system, seq = measured
        est = fine_grained_estimate(system, seq, 1)
        assert est.speedup == pytest.approx(1.0, rel=0.01)

    def test_speedup_monotone_then_saturating(self, measured):
        system, seq = measured
        curve = fine_grained_curve(system, seq, [1, 2, 4, 8, 16, 32])
        speedups = [e.speedup for e in curve]
        assert speedups[1] > speedups[0]
        # saturation: 16 -> 32 threads gains < 10%
        assert speedups[5] / speedups[4] < 1.10

    def test_matrix_cap_limits_asymptote(self, measured):
        system, seq = measured
        est = fine_grained_estimate(system, seq, 1000)
        dev, mat = work_split(system)
        bound = (dev + mat) / (mat / MATRIX_SPEEDUP_CAP)
        assert est.speedup < bound

    def test_efficiency_decreases(self, measured):
        system, seq = measured
        e2 = fine_grained_estimate(system, seq, 2)
        e8 = fine_grained_estimate(system, seq, 8)
        assert e8.efficiency < e2.efficiency

    def test_invalid_threads_rejected(self, measured):
        system, seq = measured
        with pytest.raises(ValueError):
            fine_grained_estimate(system, seq, 0)
