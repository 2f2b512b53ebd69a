"""The sparse factor path: one symmetric ordering per pattern, numeric refactors.

A fresh default ``scipy.sparse.linalg.splu`` (COLAMD ordering, partial
pivoting) is the oracle throughout: the ordered path must solve what it
solves, with no more fill, and the ordering must be computed once per
:class:`~repro.mna.pattern.JacobianPattern` however many solvers,
threads or pipeline tasks factor with it.
"""

import threading
import time

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.linalg.solve as solve_module
import repro.mna.pattern as pattern_module
from repro.api import simulate
from repro.circuits.digital import inverter_chain, nand_chain, ring_oscillator
from repro.circuits.interconnect import rc_grid, rc_ladder, rlc_line
from repro.core.wavepipe import run_wavepipe
from repro.engine.ensemble import run_ensemble_transient
from repro.engine.transient import run_transient
from repro.errors import SingularMatrixError
from repro.linalg.solve import DENSE_CUTOFF, LinearSolver
from repro.mna.compiler import compile_circuit
from repro.mna.system import MnaSystem
from repro.solver.dcop import solve_operating_point
from repro.solver.newton import newton_solve

#: Transient-like leading coefficient (1 / 0.5 ns): the C stream counts.
ALPHA0 = 2.0e9

DECKS = {
    "rc_grid(8,8)": lambda: rc_grid(8, 8),
    "rc_grid(32,32)": lambda: rc_grid(32, 32),
    "rc_ladder(500)": lambda: rc_ladder(500),
    "rlc_line(200)": lambda: rlc_line(200),
    "inverter_chain(60)": lambda: inverter_chain(60),
    "ring_oscillator(41)": lambda: ring_oscillator(41),
    "ring_oscillator(101)": lambda: ring_oscillator(101),
    "nand_chain(30)": lambda: nand_chain(30),
}
#: Decks whose Jacobian at a biased operating point has transconductance
#: entries far above the gate-node diagonals: there the 1e-3 threshold
#: keeps diagonal pivots partial pivoting would swap away, trading element
#: growth for the symmetric order. On ring_oscillator(101) the backward
#: error rises to ~5e-14 (the oracle's: ~4e-19), so the solutions differ
#: by up to the condition number times that (~1.5e-10), not by 1e-12.
MOS_DECKS = ("inverter_chain(60)", "ring_oscillator(41)", "ring_oscillator(101)",
             "nand_chain(30)")


def _fill(lu) -> int:
    return lu.L.nnz + lu.U.nnz


def _backward_error(matrix, x, b) -> float:
    """Normwise backward error of the solution *x* of ``matrix @ x = b``."""
    residual = np.abs(matrix @ x - b).max()
    return residual / (abs(matrix).sum(axis=1).max() * np.abs(x).max() + np.abs(b).max())


def _relative(x, reference) -> float:
    return float(np.abs(x - reference).max() / np.abs(reference).max())


def _jacobian(system, x):
    out = system.make_buffers()
    system.eval(x, 0.0, out)
    return system.jacobian(out, ALPHA0)


class TestDecksAgainstFreshSplu:
    @pytest.mark.parametrize("state", ["zero", "op"])
    @pytest.mark.parametrize("deck", DECKS)
    def test_solution_and_fill(self, deck, state):
        system = MnaSystem(compile_circuit(DECKS[deck]()))
        assert system.n > DENSE_CUTOFF
        x = np.zeros(system.n) if state == "zero" else solve_operating_point(system).x
        jac = _jacobian(system, x)
        oracle = spla.splu(jac.copy())
        solver = LinearSolver(system.unknown_names, system.pattern)
        solver.factor(jac)
        rhs = np.random.default_rng(7).standard_normal(system.n)
        reference = oracle.solve(rhs)
        x_new = solver.resolve(rhs)

        assert _backward_error(jac, x_new, rhs) <= 1e-13
        if deck in MOS_DECKS and state == "op":
            tol = np.linalg.cond(jac.toarray(), 1) * 1e-13  # first-order bound
        else:
            tol = 1e-12
        assert _relative(x_new, reference) <= tol
        fill, oracle_fill = _fill(solver._sparse_lu[0]), _fill(oracle)
        # Never more than 5 % above COLAMD's fill (measured worst: +3.2 %,
        # ring_oscillator(101) at its operating point; +1 entry on the
        # ladder, whose source branch has a structurally zero diagonal).
        assert fill <= 1.05 * oracle_fill
        if deck in ("rc_grid(32,32)", "rlc_line(200)", "nand_chain(30)"):
            assert fill < oracle_fill
        if deck == "rc_grid(32,32)":
            assert fill < 0.7 * oracle_fill  # 23 024 against 37 700


def _random_raw(draw_seed: int, n: int, density: float):
    """A diagonally dominant nonsymmetric matrix as raw CSC arrays with
    duplicate entries (pairs that sum to the value) and unsorted indices,
    plus the dense matrix they describe."""
    rng = np.random.default_rng(draw_seed)
    dense = np.where(rng.random((n, n)) < density, rng.standard_normal((n, n)), 0.0)
    np.fill_diagonal(dense, 0.0)
    np.fill_diagonal(dense, np.abs(dense).sum(axis=1) + 1.0 + rng.random(n))
    data, indices, indptr = [], [], [0]
    for col in range(n):
        rows = np.flatnonzero(dense[:, col])
        split = rng.random(rows.size)
        rows = np.concatenate([rows, rows])
        values = np.concatenate([split, 1.0 - split]) * dense[rows, col]
        order = rng.permutation(rows.size)
        data.extend(values[order])
        indices.extend(rows[order])
        indptr.append(len(indices))
    return (np.array(data), np.array(indices), np.array(indptr)), dense


class TestCanonicalisation:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(DENSE_CUTOFF + 1, 90),
        density=st.floats(0.01, 0.2),
        form=st.sampled_from(["csc", "csr", "unsorted_duplicates", "ndarray"]),
    )
    def test_any_input_form_solves_like_the_oracle(self, seed, n, density, form):
        raw, dense = _random_raw(seed, n, density)
        if form == "csc":
            matrix = sp.csc_matrix(dense)
        elif form == "csr":
            matrix = sp.csr_matrix(dense)
        elif form == "unsorted_duplicates":
            matrix = sp.csc_matrix(raw, shape=(n, n))
            assert not matrix.has_canonical_format
        else:
            matrix = dense.copy()
        snapshot = matrix.copy()
        rhs = np.random.default_rng(seed % 1000).standard_normal(n)
        reference = spla.splu(sp.csc_matrix(dense)).solve(rhs)

        solver = LinearSolver()
        x = solver.solve(matrix, rhs)

        assert _relative(x, reference) <= 1e-12
        # Canonicalised on a copy: the caller's matrix is untouched.
        if form == "ndarray":
            assert np.array_equal(matrix, snapshot)
        else:
            assert matrix.format == snapshot.format
            assert np.array_equal(matrix.data, snapshot.data)
            assert np.array_equal(matrix.indices, snapshot.indices)


def _grid8():
    return MnaSystem(compile_circuit(rc_grid(8, 8)))


class TestDiagnostics:
    def test_singular_matrix_names_the_unknown_in_the_original_numbering(self):
        system = _grid8()
        q = system.pattern.order.q
        k = next(i for i in range(system.n) if q[i] != i)
        jac = _jacobian(system, np.zeros(system.n)).copy()
        jac.data[jac.indices == k] = 0.0  # unknown k's row: a floating node
        solver = LinearSolver(system.unknown_names, system.pattern)
        with pytest.raises(SingularMatrixError) as info:
            solver.factor(jac)
        assert info.value.unknown == system.unknown_names[k]
        with pytest.raises(SingularMatrixError, match="no factorisation available"):
            solver.resolve(np.ones(system.n))

    def test_non_finite_rhs_raises_and_the_factors_survive(self):
        system = _grid8()
        jac = _jacobian(system, np.zeros(system.n))
        retained = jac.copy()
        solver = LinearSolver(system.unknown_names, system.pattern)
        solver.factor(jac)
        rhs = np.ones(system.n)
        rhs[3] = np.nan
        for back_solve in (solver.resolve, solver.solve_reused):
            with pytest.raises(SingularMatrixError) as info:
                back_solve(rhs)
            assert info.value.unknown in system.unknown_names
        x = solver.resolve(np.ones(system.n))
        np.testing.assert_allclose(retained @ x, np.ones(system.n), rtol=1e-12, atol=1e-12)


class TestPartialPivotRetry:
    def test_long_inverter_chain_dc_jacobian_factors(self):
        """The DC Jacobian at the first Newton iterate of a 400-stage chain
        leaves the threshold pivot without a usable pivot in the symmetric
        order ("exactly singular", suspect v(n400)); the one retry with
        partial pivoting factors it, to the oracle's accuracy."""
        system = MnaSystem(compile_circuit(inverter_chain(400)))
        first = newton_solve(system, 0.0, 0.0, 0.0, np.zeros(system.n), iter_cap=1)
        out = system.make_buffers()
        system.eval(first.x, 0.0, out)
        jac = system.jacobian(out, 0.0)
        solver = LinearSolver(system.unknown_names, system.pattern)
        solver.factor(jac)
        b = np.random.default_rng(400).normal(size=system.n)
        assert _backward_error(jac, solver.resolve(b), b) <= 1e-13


class _CountingOrder:
    """Stands in for ``SparseOrder`` in both modules that construct one."""

    def __init__(self, delay: float = 0.0):
        self.calls = 0
        self.delay = delay
        self._real = solve_module.SparseOrder

    def __call__(self, indptr, indices, n):
        self.calls += 1
        time.sleep(self.delay)
        return self._real(indptr, indices, n)


@pytest.fixture
def counting_order(monkeypatch):
    def install(delay: float = 0.0) -> _CountingOrder:
        counter = _CountingOrder(delay)
        monkeypatch.setattr(solve_module, "SparseOrder", counter)
        monkeypatch.setattr(pattern_module, "SparseOrder", counter)
        return counter

    return install


class TestOncePerPattern:
    def test_racing_first_factors_share_one_ordering(self, counting_order):
        counter = counting_order(delay=0.05)
        system = _grid8()
        jac = _jacobian(system, np.zeros(system.n))
        solvers = [LinearSolver(system.unknown_names, system.pattern) for _ in range(2)]
        barrier = threading.Barrier(2)

        def factor(solver):
            barrier.wait()
            solver.factor(jac)

        threads = [threading.Thread(target=factor, args=(s,)) for s in solvers]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.calls == 1
        (lu_a, q_a), (lu_b, q_b) = (s._sparse_lu for s in solvers)
        assert q_a is q_b
        for part in ("L", "U"):
            a, b = getattr(lu_a, part), getattr(lu_b, part)
            assert np.array_equal(a.indptr, b.indptr)
            assert np.array_equal(a.indices, b.indices)
            assert np.array_equal(a.data, b.data)
        rhs = np.arange(system.n, dtype=float)
        assert np.array_equal(solvers[0].resolve(rhs), solvers[1].resolve(rhs))

    def test_every_analysis_orders_each_pattern_once(self, counting_order, monkeypatch):
        counter = counting_order()
        patterns = []
        finalize = pattern_module.PatternBuilder.finalize

        def recording_finalize(builder, *args, **kwargs):
            patterns.append(finalize(builder, *args, **kwargs))
            return patterns[-1]

        monkeypatch.setattr(pattern_module.PatternBuilder, "finalize", recording_finalize)
        circuit = rc_grid(8, 8)
        tstop = 2e-9

        system = MnaSystem(compile_circuit(circuit))
        solve_operating_point(system)
        solve_operating_point(system)
        assert (counter.calls, len(patterns)) == (1, 1)

        run_transient(circuit, tstop)
        assert (counter.calls, len(patterns)) == (2, 2)

        # Three scalar DC systems (one per variant) and the ensemble system.
        ensemble = simulate(circuit, tstop=tstop, ensemble=3, jitter=0.02, seed=5)
        assert ensemble.sims == 3
        assert (counter.calls, len(patterns)) == (6, 6)

        result = run_wavepipe(circuit, tstop, scheme="backward", threads=2, executor="thread")
        assert result.stats.lu_factors > 1
        assert (counter.calls, len(patterns)) == (7, 7)
        assert all(p._order is not None for p in patterns)


class TestCountPins:
    def test_grid32_transient_counts(self):
        # 72 factors: the run's one solver keeps exact factors across
        # solves at a repeated step size
        stats = run_transient(rc_grid(32, 32), 10e-9).stats
        assert (stats.accepted_points, stats.newton_iterations, stats.lu_factors) == (
            73, 114, 72,
        )

    def test_k1_ensemble_bit_equal_to_scalar_on_a_sparse_grid(self):
        circuit = rc_grid(8, 8)
        seq = run_transient(circuit, 5e-9)
        ens = run_ensemble_transient([circuit], 5e-9)
        assert np.array_equal(ens.times, seq.waveforms.times)
        variant = ens.variants[0].waveforms
        for name in seq.waveforms.names:
            assert np.array_equal(variant[name].values, seq.waveforms[name].values), name
        for field in ("accepted_points", "newton_iterations", "lu_factors", "lu_solves"):
            assert getattr(ens.stats, field) == getattr(seq.stats, field), field
