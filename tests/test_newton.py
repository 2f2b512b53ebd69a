"""Newton-Raphson solver behaviour."""

import numpy as np
import pytest

from repro.circuit.circuit import Circuit
from repro.circuit.components import DiodeModel
from repro.circuit.sources import Dc
from repro.mna.compiler import compile_circuit
from repro.mna.system import MnaSystem
from repro.solver.newton import iteration_work, newton_solve
from repro.utils.options import SimOptions


def make_system(circuit, options=None):
    return MnaSystem(compile_circuit(circuit, options))


class TestLinearCircuits:
    def test_divider_solves_exactly(self, divider_circuit):
        system = make_system(divider_circuit)
        result = newton_solve(system, 0.0, 0.0, 0.0, np.zeros(system.n))
        assert result.converged
        mid = system.compiled.node_voltage_index("mid")
        assert result.x[mid] == pytest.approx(7.5, rel=1e-6)

    def test_linear_converges_fast(self, divider_circuit):
        system = make_system(divider_circuit)
        result = newton_solve(system, 0.0, 0.0, 0.0, np.zeros(system.n))
        assert result.iterations <= 3

    def test_branch_current_correct(self, divider_circuit):
        system = make_system(divider_circuit)
        result = newton_solve(system, 0.0, 0.0, 0.0, np.zeros(system.n))
        j = system.compiled.branch_current_index("V1")
        # 10 V across 4k total: 2.5 mA flows out of the source's plus pin,
        # i.e. the branch current (plus -> minus through source) is -2.5mA? No:
        # KCL at 'top': current into R1 = 2.5mA = branch current x[j].
        assert result.x[j] == pytest.approx(-2.5e-3, rel=1e-6)


class TestNonlinearCircuits:
    def test_diode_resistor_converges(self, diode_circuit):
        system = make_system(diode_circuit)
        result = newton_solve(system, 0.0, 0.0, 0.0, np.zeros(system.n))
        assert result.converged
        a = system.compiled.node_voltage_index("a")
        # forward drop of a small-signal diode at ~4.3 mA
        assert 0.55 < result.x[a] < 0.75

    def test_kcl_residual_small_at_solution(self, diode_circuit):
        system = make_system(diode_circuit)
        result = newton_solve(system, 0.0, 0.0, 0.0, np.zeros(system.n))
        out = system.make_buffers()
        system.eval(result.x, 0.0, out)
        residual = system.resistive_residual(out, result.x)
        assert np.abs(residual).max() < 1e-6

    def test_series_diodes(self):
        c = Circuit("t")
        c.add_vsource("V1", "in", "0", Dc(3.0))
        c.add_resistor("R1", "in", "a", 100.0)
        c.add_diode("D1", "a", "b", DiodeModel())
        c.add_diode("D2", "b", "0", DiodeModel())
        system = make_system(c)
        result = newton_solve(system, 0.0, 0.0, 0.0, np.zeros(system.n))
        assert result.converged
        a = system.compiled.node_voltage_index("a")
        b = system.compiled.node_voltage_index("b")
        # two junction drops split evenly
        assert result.x[a] - result.x[b] == pytest.approx(result.x[b], rel=0.05)


class TestControls:
    def test_iter_cap_returns_unconverged_without_error(self, diode_circuit):
        system = make_system(diode_circuit)
        result = newton_solve(
            system, 0.0, 0.0, 0.0, np.zeros(system.n), iter_cap=1
        )
        assert not result.converged
        assert result.iterations == 1
        assert result.failure == ""

    def test_work_units_proportional_to_iterations(self, diode_circuit):
        system = make_system(diode_circuit)
        result = newton_solve(system, 0.0, 0.0, 0.0, np.zeros(system.n))
        assert result.work_units == pytest.approx(
            result.iterations * iteration_work(system)
        )

    def test_iteration_limit_reports_failure(self, diode_circuit):
        system = make_system(diode_circuit)
        options = SimOptions(max_newton_iters=2)
        result = newton_solve(system, 0.0, 0.0, 0.0, np.zeros(system.n), options)
        assert not result.converged
        assert "iteration limit" in result.failure

    def test_voltage_limit_damps_updates(self, diode_circuit):
        system = make_system(diode_circuit)
        # A huge first step would shoot the diode voltage to ~5 V without
        # damping; limiting keeps the iterate sane and still converges.
        options = SimOptions(voltage_limit=0.5)
        result = newton_solve(system, 0.0, 0.0, 0.0, np.zeros(system.n), options)
        assert result.converged

    def test_renamed_nonlinear_bank_is_still_damped(self, diode_circuit):
        # Damping keys on the bank's `nonlinear` flag, not its class name:
        # a DiodeBank subclass under another name must walk the same
        # voltage-limited Newton path as DiodeBank itself.
        from repro.devices.diode import DiodeBank

        class JunctionBank(DiodeBank):
            pass

        options = SimOptions(voltage_limit=0.5)
        reference = newton_solve(
            make_system(diode_circuit), 0.0, 0.0, 0.0, np.zeros(3), options
        )
        compiled = compile_circuit(diode_circuit)
        for bank in compiled.banks:
            if type(bank) is DiodeBank:
                bank.__class__ = JunctionBank
        system = MnaSystem(compiled)
        assert system.has_nonlinear
        renamed = newton_solve(system, 0.0, 0.0, 0.0, np.zeros(system.n), options)
        assert renamed.converged
        assert renamed.iterations == reference.iterations
        assert np.array_equal(renamed.x, reference.x)

    def test_transient_alpha0_term(self, rc_circuit):
        # With alpha0 large (tiny step), the capacitor holds its voltage:
        # solving at t just after the step with q history from v(out)=0
        # must keep v(out) near 0.
        system = make_system(rc_circuit)
        out_idx = system.compiled.node_voltage_index("out")
        n = system.n
        x0 = np.zeros(n)
        x0[system.compiled.node_voltage_index("in")] = 1.0
        q_prev = system.charge_at(np.zeros(n))
        h = 1e-12  # much smaller than tau = 1 us
        alpha0 = 1.0 / h
        beta = -q_prev / h
        result = newton_solve(system, 2e-6, alpha0, beta, x0)
        assert result.converged
        assert abs(result.x[out_idx]) < 1e-4
