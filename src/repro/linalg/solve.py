"""Sparse linear solve with circuit-flavoured diagnostics and factor reuse.

Wraps LAPACK (dense path, below :data:`DENSE_CUTOFF` unknowns) and SuperLU
(sparse path) behind one factor/back-solve API. Singular or near-singular
factorisations raise :class:`~repro.errors.SingularMatrixError` carrying
the name of the suspect unknown, which turns "RuntimeError: Factor is
exactly singular" into "floating node v(n7)".

The solver caches its most recent factorisation so callers can split the
classic ``solve()`` into the three operations a Newton hot loop actually
needs:

* :meth:`LinearSolver.factor` — factorise a matrix and remember an opaque
  *key* describing what was factored (e.g. ``(pattern, alpha0, gshunt)``).
* :meth:`LinearSolver.resolve` — triangular back-solve against the current
  factors.
* :meth:`LinearSolver.solve_reused` — back-solve against *previously*
  computed factors without refactoring: the modified-Newton "Jacobian
  bypass". Counted separately (``reuse_hits``) so the cost model can price
  a reused factorisation at its true (back-solve only) cost.

Every sparse factorisation is a fresh ``splu`` (COLAMD ordering
included): scipy exposes no numeric-only refactorisation, and re-applying
a cached ordering through ``permc_spec="NATURAL"`` measured 2-3x slower
than letting SuperLU order the matrix itself.

All cache state is per-instance: WavePipe tasks each own a solver, so
reuse never crosses thread boundaries.
"""

from __future__ import annotations

import warnings

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.errors import SingularMatrixError

#: Below this many unknowns a dense solve is faster than SuperLU setup.
DENSE_CUTOFF = 40

#: 1/condition estimate below which we refuse the factorisation.
RCOND_FLOOR = 1e-14


class LinearSolver:
    """Factor-and-solve helper bound to one matrix size.

    Instances are cheap; WavePipe tasks each use their own. The cached
    factorisation lives on the instance, never in shared state.
    """

    def __init__(self, unknown_names: list[str] | None = None):
        self.unknown_names = unknown_names
        #: Factorisations performed.
        self.factor_count = 0
        #: Triangular back-solves performed.
        self.solve_count = 0
        #: Back-solves served from previously computed factors (bypass).
        self.reuse_hits = 0
        #: Consecutive bypassed solves since the last factorisation;
        #: policy state for ``SimOptions.refactor_every``.
        self.bypass_streak = 0

        self._key: object | None = None
        self._mode: str | None = None  # "dense" | "sparse" | None
        self._dense_lu = None
        self._dense_ref: np.ndarray | None = None
        self._sparse_lu = None
        self._sparse_ref = None

    # -- diagnostics -------------------------------------------------------------

    def _name(self, index: int) -> str | None:
        if self.unknown_names is not None and 0 <= index < len(self.unknown_names):
            return self.unknown_names[index]
        return None

    def _suspect_dense(self, dense: np.ndarray) -> str | None:
        """Heuristic: the unknown whose row has the smallest max magnitude."""
        row_max = np.abs(dense).max(axis=1)
        return self._name(int(np.argmin(row_max)))

    def _suspect_sparse(self, matrix: sp.csc_matrix) -> str | None:
        csr = matrix.tocsr()
        row_max = np.zeros(matrix.shape[0])
        for i in range(matrix.shape[0]):
            row = csr.data[csr.indptr[i] : csr.indptr[i + 1]]
            row_max[i] = np.abs(row).max() if row.size else 0.0
        return self._name(int(np.argmin(row_max)))

    # -- cache management --------------------------------------------------------

    def matches(self, key: object) -> bool:
        """True when live factors exist and were computed under *key*."""
        return (
            key is not None
            and self._mode is not None
            and self._key is not None
            and self._key == key
        )

    def invalidate(self) -> None:
        """Drop the cached factors."""
        self._key = None
        self._mode = None
        self._dense_lu = None
        self._dense_ref = None
        self._sparse_lu = None
        self._sparse_ref = None
        self.bypass_streak = 0

    # -- factor / solve ----------------------------------------------------------

    def factor(self, matrix: sp.csc_matrix, key: object | None = None) -> None:
        """Factorise *matrix*, replacing any cached factors.

        Args:
            key: opaque description of what was factored; later
                :meth:`matches` calls compare against it. ``None`` marks
                the factors as unkeyed (never matched).
        """
        n = matrix.shape[0]
        if n <= DENSE_CUTOFF:
            self._factor_dense(matrix)
        else:
            self._factor_sparse(matrix)
        self._key = key
        self.bypass_streak = 0

    def resolve(self, rhs: np.ndarray) -> np.ndarray:
        """Back-solve against the current factors."""
        if self._mode is None:
            raise SingularMatrixError("no factorisation available (factor() first)")
        self.solve_count += 1
        return self._backsolve(rhs)

    def solve_reused(self, rhs: np.ndarray) -> np.ndarray:
        """Back-solve against *previously computed* factors (Jacobian bypass).

        Identical to :meth:`resolve` numerically; booked as a reuse hit so
        cost models can price the skipped factorisation.
        """
        if self._mode is None:
            raise SingularMatrixError("no factorisation available (factor() first)")
        self.solve_count += 1
        self.reuse_hits += 1
        return self._backsolve(rhs)

    def solve(self, matrix: sp.csc_matrix, rhs: np.ndarray,
              key: object | None = None) -> np.ndarray:
        """Solve ``matrix @ x = rhs``; raises SingularMatrixError on failure.

        Convenience wrapper: one factorisation plus one back-solve.
        """
        self.factor(matrix, key=key)
        return self.resolve(rhs)

    # -- dense path --------------------------------------------------------------

    def _factor_dense(self, matrix) -> None:
        self.factor_count += 1
        dense = matrix.toarray() if sp.issparse(matrix) else np.asarray(matrix, float)
        with warnings.catch_warnings():
            # LAPACK getrf flags exact zero pivots with a LinAlgWarning;
            # we turn that condition into a typed error below instead.
            warnings.simplefilter("ignore")
            lu, piv = sla.lu_factor(dense, check_finite=False)
        u_diag = np.diagonal(lu)
        if not np.all(np.isfinite(lu)) or np.any(u_diag == 0.0):
            self._mode = None
            raise SingularMatrixError(
                "dense factorisation failed (singular matrix)",
                unknown=self._suspect_dense(dense),
            )
        self._dense_lu = (lu, piv)
        self._dense_ref = dense
        self._sparse_lu = None
        self._sparse_ref = None
        self._mode = "dense"

    # -- sparse path -------------------------------------------------------------

    def _factor_sparse(self, matrix) -> None:
        self.factor_count += 1
        if not sp.issparse(matrix):
            matrix = sp.csc_matrix(matrix)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", spla.MatrixRankWarning)
            try:
                lu = spla.splu(matrix)
            except RuntimeError as exc:
                self._mode = None
                raise SingularMatrixError(
                    f"sparse factorisation failed: {exc}",
                    unknown=self._suspect_sparse(matrix),
                ) from None
        self._sparse_lu = lu
        self._sparse_ref = matrix
        self._dense_lu = None
        self._dense_ref = None
        self._mode = "sparse"

    # -- shared back-solve -------------------------------------------------------

    def _backsolve(self, rhs: np.ndarray) -> np.ndarray:
        if self._mode == "dense":
            result = sla.lu_solve(self._dense_lu, rhs, check_finite=False)
            if not np.all(np.isfinite(result)):
                raise SingularMatrixError(
                    "dense solve produced non-finite values",
                    unknown=self._suspect_dense(self._dense_ref),
                )
            return result
        result = self._sparse_lu.solve(rhs)
        if not np.all(np.isfinite(result)):
            raise SingularMatrixError(
                "sparse solve produced non-finite values",
                unknown=self._suspect_sparse(self._sparse_ref),
            )
        return result


class BlockSolver:
    """K independent per-variant solvers for an ensemble.

    Each variant factorises its own numeric Jacobian and keeps its own
    factor cache — the modified-Newton bypass freezes and refactors
    variants individually — so the ensemble Newton loop drives
    ``solvers[k]`` directly for back-solves and bypass decisions.
    """

    def __init__(self, sims: int, unknown_names: list[str] | None = None):
        self.sims = sims
        self.solvers = [LinearSolver(unknown_names) for _ in range(sims)]

    def factor_all(
        self,
        matrices,
        key: object | None = None,
        active: np.ndarray | None = None,
    ) -> None:
        """Factor each variant's matrix.

        Args:
            matrices: K CSC matrices over one shared pattern.
            key: factor-cache key recorded on every factored solver.
            active: optional ``(K,)`` bool mask; variants marked False
                (converged/frozen) keep their existing factors untouched.
        """
        for k, (solver, matrix) in enumerate(zip(self.solvers, matrices)):
            if active is None or active[k]:
                solver.factor(matrix, key=key)

    # -- aggregate counters (sum over variants) ----------------------------------

    @property
    def factor_count(self) -> int:
        return sum(s.factor_count for s in self.solvers)

    @property
    def solve_count(self) -> int:
        return sum(s.solve_count for s in self.solvers)

    @property
    def reuse_hits(self) -> int:
        return sum(s.reuse_hits for s in self.solvers)


def condition_estimate(matrix: sp.csc_matrix) -> float:
    """Cheap 1-norm condition estimate (exact for the dense path).

    Used by tests and diagnostics, not by the solve hot path.
    """
    dense = matrix.toarray()
    try:
        return float(np.linalg.cond(dense, 1))
    except np.linalg.LinAlgError:
        return float("inf")
