"""WavePipe core: planners, invariants and scheme behaviour.

The load-bearing correctness properties:

* threads=1 pipelining reproduces the sequential trajectory bit-for-bit;
* the thread-pool runtime produces bit-identical results to the serial
  runtime (tasks are genuinely independent and stateless);
* accepted waveforms agree with sequential within integration tolerance
  for every scheme (the paper's central claim);
* accounting invariants: virtual work never exceeds serial-equivalent
  work, wasted solves are charged, stage widths respect the thread count.
"""

import dataclasses
import functools

import numpy as np
import pytest

from repro.circuit.circuit import Circuit
from repro.circuit.sources import Pulse
from repro.core.backward import BackwardPipeline, plan_backward_targets
from repro.core.combined import CombinedPipeline
from repro.core.forward import ForwardPipeline
from repro.core.wavepipe import compare_with_sequential, run_wavepipe
from repro.circuits.registry import get_benchmark
from repro.engine.transient import TransientStats, run_transient
from repro.errors import SimulationError
from repro.instrument import Recorder
from repro.mna.compiler import compile_circuit
from repro.utils.options import SimOptions
from repro.waveform.waveform import compare, worst_deviation


@pytest.fixture(scope="module")
def grid_circuit():
    from repro.circuits.interconnect import rc_grid

    return compile_circuit(rc_grid(nx=4, ny=4))


@pytest.fixture(scope="module")
def chain_circuit():
    from repro.circuits.digital import inverter_chain

    return compile_circuit(inverter_chain(stages=4))


GRID_TSTOP = 25e-9
CHAIN_TSTOP = 25e-9

#: Every ``TransientStats`` field that counts something (wall seconds
#: excluded).
COUNT_FIELDS = [
    f.name
    for f in dataclasses.fields(TransientStats)
    if f.name not in ("dcop_seconds", "tran_seconds")
]


@functools.lru_cache(maxsize=None)
def _registry_sequential(name: str, reuse: bool):
    bench = get_benchmark(name)
    options = bench.options.replace(jacobian_reuse=reuse)
    return run_transient(bench.build(), bench.tstop, tstep=bench.tstep, options=options)


class TestPlanBackwardTargets:
    def test_single_thread_plain_step(self):
        assert plan_backward_targets(1.0, 10.0, None, 2.0, 1) == [1.0]

    def test_breakpoint_window_collapses_to_single(self):
        targets = plan_backward_targets(0.95, 1.0, None, 2.0, 4)
        assert targets == [1.0]

    def test_chain_grows_geometrically(self):
        targets = plan_backward_targets(1.0, 100.0, None, 2.0, 4)
        assert targets == pytest.approx([1.0, 3.0, 7.0, 15.0])

    def test_chain_capped_by_estimate(self):
        targets = plan_backward_targets(1.0, 100.0, 5.0, 2.0, 4)
        assert targets == pytest.approx([1.0, 3.0])

    def test_cap_never_below_sequential_step(self):
        targets = plan_backward_targets(1.0, 100.0, 0.01, 2.0, 4)
        assert targets[0] == pytest.approx(1.0)

    def test_guard_prepended(self):
        targets = plan_backward_targets(
            1.0, 100.0, None, 2.0, 3, guard_fraction=0.5
        )
        assert targets == pytest.approx([0.5, 1.0, 3.0])

    def test_no_chain_when_disallowed(self):
        targets = plan_backward_targets(
            1.0, 100.0, None, 2.0, 4, allow_chain=False
        )
        assert targets == [1.0]

    def test_room_clips_chain(self):
        targets = plan_backward_targets(1.0, 5.0, None, 2.0, 4)
        # 1, then 3, then 7 > 5*0.9 -> snap to room
        assert targets == pytest.approx([1.0, 3.0, 5.0])

    def test_ascending(self):
        targets = plan_backward_targets(
            1.0, 1000.0, None, 2.0, 6, guard_fraction=0.4
        )
        assert all(b > a for a, b in zip(targets, targets[1:]))


@pytest.mark.parametrize("engine_cls", [BackwardPipeline, ForwardPipeline, CombinedPipeline])
class TestSchemeInvariants:
    def test_single_thread_matches_sequential_exactly(self, engine_cls, grid_circuit):
        seq = run_transient(grid_circuit, GRID_TSTOP)
        pipe = engine_cls(grid_circuit, GRID_TSTOP, threads=1).run()
        np.testing.assert_array_equal(seq.times, pipe.times)
        for name in ("v(p_3_3)", "v(p_0_1)"):
            np.testing.assert_array_equal(
                seq.waveforms[name].values, pipe.waveforms[name].values
            )

    @pytest.mark.parametrize("reuse", [False, True], ids=["reuse_off", "reuse_on"])
    @pytest.mark.parametrize("name", ["rectifier", "mixer", "invchain8", "rlcline8"])
    def test_single_thread_retraces_sequential(self, engine_cls, name, reuse):
        """Breakpoints, limiting and rejections included: at threads=1 a
        scheme runs the sequential engine's own one-wide stage — one
        buffer set, one solver kept across time points — so the grid,
        every waveform, every count and the virtual clock agree to the
        bit, with factor reuse on as well as off."""
        bench = get_benchmark(name)
        options = bench.options.replace(jacobian_reuse=reuse)
        seq = _registry_sequential(name, reuse)
        pipe = engine_cls(
            bench.build(), bench.tstop, threads=1, tstep=bench.tstep, options=options
        ).run()
        np.testing.assert_array_equal(seq.times, pipe.times)
        np.testing.assert_array_equal(seq.step_sizes, pipe.step_sizes)
        assert seq.waveforms.names == pipe.waveforms.names
        for signal in seq.waveforms.names:
            np.testing.assert_array_equal(
                seq.waveforms[signal].values, pipe.waveforms[signal].values
            )
        for field in COUNT_FIELDS:
            assert getattr(pipe.stats, field) == getattr(seq.stats, field), field
        assert pipe.stats.virtual_total == seq.stats.total_work
        assert pipe.stats.wasted_solves == 0 and pipe.stats.clock.peak_width == 1

    def test_accuracy_within_tolerance(self, engine_cls, chain_circuit):
        """Digital signals: pointwise deviation at a 100 ps edge explodes
        for picosecond timing shifts, so accuracy is asserted the way a
        designer would read it — same switching events, edge times within
        a small fraction of the pulse period, and matching levels."""
        seq = run_transient(chain_circuit, CHAIN_TSTOP)
        pipe = engine_cls(chain_circuit, CHAIN_TSTOP, threads=3).run()
        for name in ("v(n2)", "v(n4)"):
            e_seq = seq.waveforms[name].crossings(1.5)
            e_pipe = pipe.waveforms[name].crossings(1.5)
            assert e_seq.size == e_pipe.size, f"{name}: edge count differs"
            assert np.abs(e_seq - e_pipe).max() < 0.01 * 10e-9  # 1% of period
            assert seq.waveforms[name].final_value() == pytest.approx(
                pipe.waveforms[name].final_value(), abs=0.02
            )

    def test_accounting_invariants(self, engine_cls, grid_circuit):
        pipe = engine_cls(grid_circuit, GRID_TSTOP, threads=3).run()
        stats = pipe.stats
        assert stats.virtual_total <= stats.serial_total + 1e-9
        assert stats.clock.peak_width <= 3
        assert stats.accepted_points == len(pipe.times) - 1
        assert stats.self_speedup() >= 1.0

    def test_reaches_tstop(self, engine_cls, grid_circuit):
        pipe = engine_cls(grid_circuit, GRID_TSTOP, threads=2).run()
        assert pipe.final_time == pytest.approx(GRID_TSTOP, rel=1e-9)

    def test_single_use_enforced(self, engine_cls, grid_circuit):
        engine = engine_cls(grid_circuit, GRID_TSTOP, threads=2)
        engine.run()
        with pytest.raises(SimulationError, match="single-use"):
            engine.run()


class TestThreadRuntimeEquivalence:
    @pytest.mark.parametrize("scheme", ["backward", "forward", "combined"])
    def test_thread_executor_bit_identical(self, scheme, chain_circuit):
        serial = run_wavepipe(
            chain_circuit, CHAIN_TSTOP, scheme=scheme, threads=3, executor="serial"
        )
        threaded = run_wavepipe(
            chain_circuit, CHAIN_TSTOP, scheme=scheme, threads=3, executor="thread"
        )
        np.testing.assert_array_equal(serial.times, threaded.times)
        for name in serial.waveforms.names:
            np.testing.assert_array_equal(
                serial.waveforms[name].values, threaded.waveforms[name].values
            )


class TestBackwardBehaviour:
    def test_chain_extensions_accepted_on_ramping_circuit(self, grid_circuit):
        pipe = BackwardPipeline(grid_circuit, GRID_TSTOP, threads=4).run()
        # ramp-heavy workload: some stages must have run wider than 1 task
        assert pipe.stats.clock.peak_width >= 2
        assert pipe.stats.clock.mean_width > 1.0

    def test_guard_salvages_rejections(self):
        # Ring oscillator: high sequential rejection rate; the guard must
        # convert a meaningful number into progress.
        from repro.circuits.digital import ring_oscillator

        compiled = compile_circuit(ring_oscillator(stages=3))
        pipe = BackwardPipeline(compiled, 10e-9, threads=2).run()
        assert pipe.stats.guard_salvages > 0

    def test_speedup_not_a_slowdown(self, grid_circuit):
        report = compare_with_sequential(
            grid_circuit, GRID_TSTOP, scheme="backward", threads=2
        )
        assert report.speedup >= 0.95

    def test_wasted_work_charged(self, chain_circuit):
        pipe = BackwardPipeline(chain_circuit, CHAIN_TSTOP, threads=4).run()
        stats = pipe.stats
        if stats.wasted_solves:
            assert stats.wasted_work > 0


class TestForwardBehaviour:
    def test_speculation_on_smooth_circuit(self):
        from repro.circuits.digital import ring_oscillator

        compiled = compile_circuit(ring_oscillator(stages=3))
        pipe = ForwardPipeline(compiled, 10e-9, threads=2).run()
        assert pipe.stats.speculative_solves > 0
        assert pipe.stats.speculative_hits > 0

    def test_speculation_disabled_on_cheap_solves(self, grid_circuit):
        # Linear circuit: ~2-iteration solves leave nothing to pre-pay.
        # The cost EWMA needs a few stages to learn that, so allow a
        # handful of startup speculations but require the bulk disabled.
        pipe = ForwardPipeline(grid_circuit, GRID_TSTOP, threads=2).run()
        assert pipe.stats.speculative_solves < 0.1 * pipe.stats.accepted_points

    def test_committed_points_satisfy_exact_equations(self, chain_circuit):
        # The speculative mechanism must never leave a point that fails
        # the exact discretised equations: re-verify KCL residuals.
        from repro.mna.system import MnaSystem

        pipe = ForwardPipeline(chain_circuit, CHAIN_TSTOP, threads=2).run()
        system = MnaSystem(chain_circuit)
        out = system.make_buffers()
        times = pipe.times
        matrix = np.column_stack(
            [pipe.waveforms[n].values for n in system.unknown_names]
        )
        # resistive-only sanity at a few accepted points (charge terms need
        # history; the resistive residual alone is bounded by C*dv/dt).
        for k in np.linspace(1, len(times) - 1, 8, dtype=int):
            system.eval(matrix[k], times[k], out)
            residual = system.resistive_residual(out, matrix[k])
            assert np.all(np.isfinite(residual))


class TestCombinedBehaviour:
    def test_runs_and_matches(self, chain_circuit):
        report = compare_with_sequential(
            chain_circuit, CHAIN_TSTOP, scheme="combined", threads=4,
            signals=["v(n4)"],
        )
        assert report.speedup >= 0.95
        # pointwise deviation on an edge-heavy signal: bounded by one edge
        # displaced within the LTE budget, not by reltol (see above).
        assert report.worst_deviation.max_relative < 0.5

    def test_efficiency_definition(self, chain_circuit):
        report = compare_with_sequential(
            chain_circuit, CHAIN_TSTOP, scheme="combined", threads=4
        )
        assert report.efficiency == pytest.approx(report.speedup / 4)

    def test_summary_renders(self, chain_circuit):
        report = compare_with_sequential(
            chain_circuit, CHAIN_TSTOP, scheme="combined", threads=3
        )
        text = report.summary()
        assert "combined x3" in text
        assert "speedup" in text


class TestApi:
    def test_unknown_scheme_rejected(self, grid_circuit):
        with pytest.raises(SimulationError, match="scheme"):
            run_wavepipe(grid_circuit, GRID_TSTOP, scheme="sideways")

    def test_zero_threads_rejected(self, grid_circuit):
        with pytest.raises(SimulationError):
            run_wavepipe(grid_circuit, GRID_TSTOP, threads=0)

    def test_accepts_raw_circuit(self):
        c = Circuit("rc")
        c.add_vsource("V1", "a", "0", Pulse(0, 1, delay=1e-9, rise=1e-12, width=1.0))
        c.add_resistor("R1", "a", "b", 1e3)
        c.add_capacitor("C1", "b", "0", 1e-9)
        result = run_wavepipe(c, 5e-6, scheme="backward", threads=2)
        assert result.scheme == "backward"
        assert result.stats.threads == 2

    def test_result_metadata(self, grid_circuit):
        result = run_wavepipe(grid_circuit, GRID_TSTOP, scheme="forward", threads=2)
        assert result.scheme == "forward"
        assert result.pipeline_stats is result.stats

    def test_uic_supported(self):
        c = Circuit("t")
        c.add_vsource("V1", "in", "0", 0.0)
        c.add_resistor("R1", "in", "out", 1e3)
        c.add_capacitor("C1", "out", "0", 1e-9, ic=1.0)
        result = run_wavepipe(c, 3e-6, scheme="backward", threads=2, uic=True)
        assert result.waveforms.voltage("out").at(0.0) == pytest.approx(1.0)


class TestLuAccounting:
    """``stats.lu_*`` is the recorder's ``lu.*``: every solve that runs —
    stage tasks, the sequential step, corrective re-solves — is booked
    through the one ``charge_solution``."""

    @pytest.mark.parametrize("name", ["invchain8", "mixer"])
    @pytest.mark.parametrize("analysis", ["sequential", "backward", "forward", "combined"])
    def test_stats_equal_recorder_counters(self, analysis, name):
        bench = get_benchmark(name)
        rec = Recorder(capture_events=False)
        if analysis == "sequential":
            result = run_transient(
                bench.build(), bench.tstop, tstep=bench.tstep,
                options=bench.options, instrument=rec,
            )
        else:
            result = run_wavepipe(
                bench.build(), bench.tstop, scheme=analysis, threads=3,
                tstep=bench.tstep, options=bench.options, instrument=rec,
            )
        assert result.stats.lu_factors == rec.counter("lu.factor")
        assert result.stats.lu_solves == rec.counter("lu.solve")
        assert result.stats.lu_reuse_hits == rec.counter("lu.reuse_hit")
