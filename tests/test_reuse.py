"""Factorisation reuse: equivalence, boundaries, invalidation.

Factors keyed ``(pattern, alpha0, gshunt)`` are reused two ways. On a
linear system the Jacobian is its static stamps alone, so a key match is
the exact operator and reuse is unconditional; ``SimOptions.
jacobian_reuse`` governs only the modified-Newton bypass of nonlinear
systems. These tests pin down that contract:

* on linear circuits reuse off and on are the same run — times,
  waveforms, counts and factorisations — with fewer factorisations than
  Newton iterations; the premise (the assembled Jacobian does not depend
  on the operating point or the time) is checked directly,
* on nonlinear circuits reuse-off never bypasses and reuse-on stays
  within solver tolerance of it,
* both sides of the dense/sparse split at ``DENSE_CUTOFF`` solve
  correctly and count every factorisation,
* cached factors never leak across Jacobian patterns,
* the ``lu.*`` counters surface through the instrumentation layer.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.circuits.interconnect import rc_grid
from repro.circuits.registry import BENCHMARKS, get_benchmark
from repro.engine.transient import run_transient
from repro.errors import SingularMatrixError
from repro.instrument import Recorder
from repro.linalg.solve import DENSE_CUTOFF, LinearSolver
from repro.mna.compiler import compile_circuit
from repro.mna.system import MnaSystem
from repro.utils.options import SimOptions
from repro.verify.generators import FAMILIES
from repro.waveform.waveform import compare, worst_deviation

#: Same ceiling as the Table R9 benchmark: generous vs the measured
#: worst case (~7e-3 on lcosc), far below a wrong waveform.
DEV_TOL = 2e-2

LINEAR = ["rcladder20", "powergrid6x6", "rlcline8"]
NONLINEAR = ["ring5", "rectifier", "lcosc"]


def _run_pair(name):
    """Run one registry circuit with the fast path off, then on."""
    bench = get_benchmark(name)
    compiled = compile_circuit(bench.build(), bench.options)
    off = run_transient(
        compiled, bench.tstop, tstep=bench.tstep,
        options=bench.options.replace(jacobian_reuse=False),
    )
    on = run_transient(
        compiled, bench.tstop, tstep=bench.tstep,
        options=bench.options.replace(jacobian_reuse=True),
    )
    return bench, off, on


class TestWaveformEquivalence:
    @pytest.mark.parametrize("name", LINEAR)
    def test_linear_circuits_bit_identical(self, name):
        # Linear circuits converge in one exact Newton step, so a reused
        # factorisation yields the *same* solve — time grid and every
        # accepted sample must match exactly, not just within tolerance.
        bench, off, on = self._pair = _run_pair(name)
        assert on.stats.lu_reuse_hits > 0
        assert np.array_equal(off.times, on.times)
        for signal in off.waveforms.names:
            assert np.array_equal(
                off.waveforms[signal].values, on.waveforms[signal].values
            ), f"{name}: {signal} diverged under factor reuse"

    @pytest.mark.parametrize("name", NONLINEAR)
    def test_nonlinear_circuits_within_tolerance(self, name):
        # Stale factors change the Newton *iterates* (and hence the step
        # controller's path), so equality is not expected — but accepted
        # waveforms must stay within solver tolerance of the reference.
        bench, off, on = _run_pair(name)
        assert on.stats.lu_reuse_hits > 0
        worst = worst_deviation(
            compare(off.waveforms, on.waveforms, names=list(bench.signals))
        )
        assert worst is not None
        assert worst.max_relative <= DEV_TOL, (
            f"{name}: {worst.name} deviates {worst.max_relative:.2e} "
            f"with jacobian_reuse on"
        )

    def test_reuse_off_performs_no_bypass(self):
        # On a nonlinear circuit the switch is the whole story: off means
        # full Newton, one factorisation per iteration.
        bench, off, on = _run_pair("rectifier")
        assert off.stats.lu_reuse_hits == 0
        assert off.stats.bypass_fallbacks == 0
        assert off.stats.lu_factors == off.stats.lu_solves
        # Reuse strictly reduces factorisation work.
        assert on.stats.lu_factors < off.stats.lu_factors

    @pytest.mark.parametrize("name", LINEAR)
    def test_linear_reuse_is_exact_with_the_switch_off(self, name):
        # Exact factors are reused within a solve with the switch off too;
        # the switch only lets them carry across solves. Either way every
        # reuse is exact, so the two runs take the same path bit for bit.
        bench, off, on = _run_pair(name)
        assert np.array_equal(off.times, on.times)
        for signal in off.waveforms.names:
            assert np.array_equal(
                off.waveforms[signal].values, on.waveforms[signal].values
            )
        for field in ("accepted_points", "newton_iterations", "lu_solves"):
            assert getattr(off.stats, field) == getattr(on.stats, field), field
        assert off.stats.bypass_fallbacks == on.stats.bypass_fallbacks == 0
        assert off.stats.lu_reuse_hits > 0
        assert off.stats.lu_factors < off.stats.newton_iterations
        assert on.stats.lu_factors <= off.stats.lu_factors


def _linear_systems():
    """Every linear registry circuit and verify family, plus a sparse grid."""
    cases = {}
    for name in BENCHMARKS:
        bench = get_benchmark(name)
        system = MnaSystem(compile_circuit(bench.build(), bench.options))
        if not system.has_nonlinear:
            cases[name] = system
    for family, build in sorted(FAMILIES.items()):
        generated = build(np.random.default_rng(11))
        if generated.linear:
            cases[family] = MnaSystem(compile_circuit(generated.circuit))
    cases["grid8x8"] = MnaSystem(compile_circuit(rc_grid(8, 8)))
    return cases


def test_linear_jacobian_does_not_depend_on_the_operating_point():
    # The premise of exact reuse: on a linear system the assembled
    # operator is the same bits at any (x, t) for a given alpha0/gshunt.
    cases = _linear_systems()
    assert set(LINEAR) <= set(cases)
    assert {"rc-ladder", "rlc-ladder", "bridged-rc-mesh"} <= set(cases)
    rng = np.random.default_rng(5)
    for name, system in cases.items():
        assert not system.has_nonlinear
        out = system.make_buffers()
        alpha0 = float(rng.uniform(1e6, 1e10))
        mats = []
        for _ in range(2):
            system.eval(rng.standard_normal(system.n), float(rng.uniform(0, 1e-6)), out)
            jac = system.jacobian(out, alpha0)
            mats.append(jac.toarray() if sp.issparse(jac) else np.array(jac))
        assert mats[0].tobytes() == mats[1].tobytes(), name


def _random_system(n, seed=0):
    """Well-conditioned random test matrix (diagonally dominant) + rhs."""
    rng = np.random.default_rng(seed)
    dense = rng.standard_normal((n, n))
    dense += n * np.eye(n)
    return sp.csc_matrix(dense), rng.standard_normal(n)


class TestDenseCutoffBoundary:
    @pytest.mark.parametrize("n", [DENSE_CUTOFF - 1, DENSE_CUTOFF])
    def test_dense_path_never_refactors(self, n):
        matrix, rhs = _random_system(n)
        solver = LinearSolver()
        x1 = solver.solve(matrix, rhs)
        x2 = solver.solve(matrix, rhs)
        assert solver.factor_count == 2
        assert np.allclose(x1, np.linalg.solve(matrix.toarray(), rhs))
        assert np.array_equal(x1, x2)

    def test_sparse_path_refactors_same_pattern(self):
        n = DENSE_CUTOFF + 1
        matrix, rhs = _random_system(n)
        solver = LinearSolver()
        x1 = solver.solve(matrix, rhs)
        assert solver.factor_count == 1
        # Same CSC indices object, new values: a fresh factorisation.
        matrix.data *= 2.0
        x2 = solver.solve(matrix, rhs)
        assert solver.factor_count == 2
        assert np.allclose(x1, np.linalg.solve(matrix.toarray() / 2.0, rhs))
        assert np.allclose(x2, np.linalg.solve(matrix.toarray(), rhs))

    def test_sparse_fresh_pattern_is_full_factorisation(self):
        n = DENSE_CUTOFF + 1
        matrix, rhs = _random_system(n)
        solver = LinearSolver()
        solver.solve(matrix, rhs)
        other, _ = _random_system(n, seed=1)
        solver.solve(other, rhs)
        assert solver.factor_count == 2


class TestKeyedReuse:
    def test_matches_and_reuse_counters(self):
        matrix, rhs = _random_system(8)
        solver = LinearSolver()
        key = ("pattern", 1e9, 1e-12)
        solver.factor(matrix, key=key)
        assert solver.matches(key)
        assert not solver.matches(("pattern", 2e9, 1e-12))
        assert not solver.matches(None)

        direct = solver.resolve(rhs)
        reused = solver.solve_reused(rhs)
        assert np.array_equal(direct, reused)
        assert solver.solve_count == 2
        assert solver.reuse_hits == 1

    def test_invalidate_drops_factors(self):
        matrix, rhs = _random_system(8)
        solver = LinearSolver()
        solver.factor(matrix, key="k")
        solver.invalidate()
        assert not solver.matches("k")
        with pytest.raises(SingularMatrixError):
            solver.solve_reused(rhs)

    def test_pattern_identity_invalidates_across_systems(self, rc_circuit,
                                                         divider_circuit):
        # Two different circuits produce distinct JacobianPattern objects;
        # factors keyed under one must never satisfy a lookup for the other,
        # even at identical alpha0/gshunt.
        sys_a = MnaSystem(compile_circuit(rc_circuit, SimOptions()))
        sys_b = MnaSystem(compile_circuit(divider_circuit, SimOptions()))
        out = sys_a.make_buffers()
        x = np.zeros(sys_a.n)
        sys_a.eval(x, 0.0, out)
        jac = sys_a.jacobian(out, alpha0=1e6)

        solver = LinearSolver(sys_a.unknown_names)
        alpha0, gshunt = 1e6, sys_a.gshunt
        solver.factor(jac, key=(sys_a.pattern, alpha0, gshunt))
        assert solver.matches((sys_a.pattern, alpha0, gshunt))
        assert not solver.matches((sys_b.pattern, alpha0, gshunt))
        assert not solver.matches((sys_a.pattern, 2e6, gshunt))


class TestInstrumentation:
    def test_lu_counters_reach_recorder(self):
        bench = get_benchmark("rcladder20")
        rec = Recorder()
        result = run_transient(
            bench.build(), bench.tstop, tstep=bench.tstep,
            options=bench.options.replace(jacobian_reuse=True),
            instrument=rec,
        )
        assert result.stats.lu_reuse_hits > 0
        assert rec.counter("lu.factor") > 0
        assert rec.counter("lu.solve") > 0
        assert rec.counter("lu.reuse_hit") == result.stats.lu_reuse_hits
        assert rec.counter("lu.solve") >= rec.counter("lu.reuse_hit")

    def test_metrics_report_hit_rate(self):
        bench = get_benchmark("rcladder20")
        result = run_transient(
            bench.build(), bench.tstop, tstep=bench.tstep,
            options=bench.options.replace(jacobian_reuse=True),
        )
        stats = result.stats
        assert stats.reuse_hit_rate == stats.lu_reuse_hits / stats.lu_solves
        assert 0.0 < stats.reuse_hit_rate <= 1.0
        payload = stats.to_dict()
        assert payload["lu_reuse_hits"] == stats.lu_reuse_hits
        assert payload["reuse_hit_rate"] == stats.reuse_hit_rate
        assert "lu:" in stats.summary()
