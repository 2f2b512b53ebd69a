"""Linear solver wrapper: dense/sparse paths and singularity diagnostics."""

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from repro.circuits.interconnect import rc_grid
from repro.circuits.registry import get_benchmark
from repro.errors import SingularMatrixError
from repro.linalg.solve import DENSE_CUTOFF, BlockSolver, LinearSolver, condition_estimate
from repro.mna.compiler import compile_circuit
from repro.mna.ensemble import compile_ensemble
from repro.mna.system import MnaSystem


def random_spd(n, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    return sp.csc_matrix(a @ a.T + n * np.eye(n))


class TestSolve:
    @pytest.mark.parametrize("n", [2, 5, DENSE_CUTOFF - 1])
    def test_dense_path(self, n):
        mat = random_spd(n)
        x_true = np.arange(1, n + 1, dtype=float)
        solver = LinearSolver()
        x = solver.solve(mat, mat @ x_true)
        np.testing.assert_allclose(x, x_true, rtol=1e-9)

    def test_sparse_path(self):
        n = DENSE_CUTOFF + 20
        mat = random_spd(n, seed=3)
        x_true = np.linspace(-1, 1, n)
        solver = LinearSolver()
        x = solver.solve(mat, mat @ x_true)
        np.testing.assert_allclose(x, x_true, rtol=1e-8)

    def test_counters(self):
        solver = LinearSolver()
        mat = random_spd(3)
        solver.solve(mat, np.ones(3))
        solver.solve(mat, np.ones(3))
        assert solver.factor_count == 2
        assert solver.solve_count == 2


class TestSingularity:
    def test_dense_singular_raises_with_suspect(self):
        mat = sp.csc_matrix(np.array([[1.0, 0.0], [0.0, 0.0]]))
        solver = LinearSolver(unknown_names=["v(a)", "v(b)"])
        with pytest.raises(SingularMatrixError) as info:
            solver.solve(mat, np.ones(2))
        assert "v(b)" in str(info.value)

    def test_sparse_singular_raises(self):
        n = DENSE_CUTOFF + 5
        dense = np.eye(n)
        dense[n - 1, n - 1] = 0.0
        solver = LinearSolver(unknown_names=[f"v(n{i})" for i in range(n)])
        with pytest.raises(SingularMatrixError) as info:
            solver.solve(sp.csc_matrix(dense), np.ones(n))
        # The suspect is the row with the smallest largest entry.
        assert info.value.unknown == f"v(n{n - 1})"

    def test_sparse_suspect_counts_an_empty_row_as_zero(self):
        n = DENSE_CUTOFF + 5
        dense = 3.0 * np.eye(n)
        dense[7, :] = 0.0
        dense[0, 1] = -9.0  # a large negative entry must not make row 0 "small"
        solver = LinearSolver(unknown_names=[f"v(n{i})" for i in range(n)])
        assert solver._suspect_sparse(sp.csc_matrix(dense)) == "v(n7)"

    def test_condition_estimate(self):
        assert condition_estimate(sp.csc_matrix(np.eye(3))) == pytest.approx(1.0)
        singular = sp.csc_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
        assert condition_estimate(singular) > 1e12


#: Messages of the dense path, unchanged since it went through
#: ``scipy.linalg.lu_factor``/``lu_solve``.
FACTOR_FAILED = "dense factorisation failed (singular matrix) (suspect unknown: {})"
SOLVE_FAILED = "dense solve produced non-finite values (suspect unknown: {})"
NAMES = ["v(a)", "v(b)", "v(c)", "i(L1)"]


def _well_posed(as_sparse):
    dense = np.array(
        [[4.0, 1.0, 0.0, 0.5], [1.0, 3.0, 1.0, 0.0], [0.0, 1e-3, 2e-3, 0.0], [0.5, 0.0, 0.0, 5.0]]
    )
    return sp.csc_matrix(dense) if as_sparse else np.asfortranarray(dense)


@pytest.mark.parametrize("as_sparse", [False, True], ids=["ndarray", "csc"])
class TestDenseDiagnostics:
    """The raw-LAPACK dense path keeps every check, message and suspect."""

    def test_exact_zero_pivot(self, as_sparse):
        # Rows 0 and 1 are equal: elimination leaves U[1, 1] == 0 exactly,
        # which dgetrf reports as info > 0 (no LinAlgWarning to catch).
        matrix = _well_posed(as_sparse)
        matrix = matrix.toarray() if as_sparse else matrix.copy()
        matrix[1] = matrix[0]
        matrix[2] *= 1e-6  # the smallest row is the one that gets blamed
        matrix = sp.csc_matrix(matrix) if as_sparse else matrix
        solver = LinearSolver(NAMES)
        with pytest.raises(SingularMatrixError) as info:
            solver.factor(matrix)
        assert str(info.value) == FACTOR_FAILED.format("v(c)")
        assert solver.factor_count == 1
        with pytest.raises(SingularMatrixError, match="no factorisation available"):
            solver.resolve(np.ones(4))

    def test_nan_stamp(self, as_sparse):
        matrix = _well_posed(as_sparse)
        matrix = matrix.toarray() if as_sparse else matrix.copy()
        matrix[3, 3] = np.nan
        matrix = sp.csc_matrix(matrix) if as_sparse else matrix
        with pytest.raises(SingularMatrixError) as info:
            LinearSolver(NAMES).factor(matrix)
        assert str(info.value).startswith("dense factorisation failed (singular matrix)")
        assert info.value.unknown in NAMES

    def test_non_finite_back_solve(self, as_sparse):
        solver = LinearSolver(NAMES)
        solver.factor(_well_posed(as_sparse))
        rhs = np.array([1.0, np.inf, 0.0, 0.0])
        for back_solve in (solver.resolve, solver.solve_reused):
            with pytest.raises(SingularMatrixError) as info:
                back_solve(rhs)
            assert str(info.value) == SOLVE_FAILED.format("v(c)")
        # The factors survive a bad right-hand side.
        x = solver.resolve(np.ones(4))
        np.testing.assert_allclose(_well_posed(False) @ x, np.ones(4), rtol=1e-12)

    def test_factors_are_the_ones_lu_factor_returns(self, as_sparse):
        matrix = _well_posed(as_sparse)
        solver = LinearSolver()
        solver.factor(matrix)
        dense = matrix.toarray() if as_sparse else matrix
        lu, piv = sla.lu_factor(dense, check_finite=False)
        assert np.array_equal(solver._dense_lu[0], lu)
        assert np.array_equal(solver._dense_lu[1], piv)
        rhs = np.array([1.0, -2.0, 0.5, 3.0])
        assert np.array_equal(
            solver.resolve(rhs), sla.lu_solve((lu, piv), rhs, check_finite=False)
        )
        assert np.array_equal(rhs, [1.0, -2.0, 0.5, 3.0])  # not overwritten


class TestWorkspaceAliasing:
    """`jacobian()` hands the solver an aliased workspace matrix."""

    @pytest.mark.parametrize("name", ["ring9", "mixer", "rcladder20"])
    def test_factors_survive_a_later_assemble(self, name):
        bench = get_benchmark(name)
        system = MnaSystem(compile_circuit(bench.build(), bench.options))
        out = system.make_buffers()
        rng = np.random.default_rng(11)
        x1, x2 = rng.normal(0.0, 0.5, (2, system.n))
        rhs = rng.standard_normal(system.n)
        alpha0 = 2.0e9
        key = (system.pattern, alpha0, system.gshunt)

        system.eval(x1, 0.0, out)
        jac = system.jacobian(out, alpha0)
        retained = jac.copy()
        solver = LinearSolver(system.unknown_names)
        solver.factor(jac, key=key)
        before = solver.solve_reused(rhs)

        # A second operating point assembled into the same workspace (what
        # a bypassed Newton iteration's successor does) rewrites `jac`...
        system.eval(x2, 0.0, out)
        assert system.jacobian(out, 2 * alpha0) is jac
        assert not np.array_equal(jac, retained)
        # ...but neither the factors nor the diagnostic reference.
        assert solver.matches(key)
        assert np.array_equal(solver.solve_reused(rhs), before)
        assert np.array_equal(solver._dense_ref, retained)
        np.testing.assert_allclose(retained @ before, rhs, rtol=1e-7, atol=1e-9)

    def test_sparse_reference_survives_a_later_assemble(self):
        system = MnaSystem(compile_circuit(rc_grid(8, 8)))
        assert system.n > DENSE_CUTOFF
        out = system.make_buffers()
        rhs = np.random.default_rng(13).standard_normal(system.n)
        alpha0 = 2.0e9
        system.eval(np.zeros(system.n), 0.0, out)
        jac = system.jacobian(out, alpha0)
        retained = jac.copy()
        solver = LinearSolver(system.unknown_names, system.pattern)
        solver.factor(jac, key="k")
        before = solver.solve_reused(rhs)

        assert system.jacobian(out, 2 * alpha0) is jac
        assert (jac != retained).nnz
        # The reference is the owned gather A[q][:, q], not the workspace.
        q = system.pattern.order.q
        assert (solver._sparse_ref != retained[q][:, q]).nnz == 0
        assert np.array_equal(solver.solve_reused(rhs), before)
        np.testing.assert_allclose(retained @ before, rhs, rtol=1e-12, atol=1e-12)

    def test_block_factors_survive_a_later_assemble(self):
        bench = get_benchmark("invchain8")
        system = compile_ensemble([bench.build()] * 2, bench.options).system
        out = system.make_buffers()
        rng = np.random.default_rng(12)
        x1, x2 = rng.normal(0.0, 0.5, (2, system.n, 2))
        rhs = rng.standard_normal(system.n)
        system.eval(x1, 0.0, out)
        matrices = system.jacobian(out, 2.0e9)
        assert all(m.flags.f_contiguous for m in matrices)
        solver = BlockSolver(2, system.unknown_names)
        solver.factor_all(matrices, key="k")
        before = [s.resolve(rhs) for s in solver.solvers]
        system.eval(x2, 0.0, out)
        system.jacobian(out, 4.0e9)
        for sub, x in zip(solver.solvers, before):
            assert np.array_equal(sub.resolve(rhs), x)
