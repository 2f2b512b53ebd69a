"""Linear solve with circuit-flavoured diagnostics and factor reuse.

One factor/back-solve API over two back ends, switched on matrix size
alone: up to :data:`DENSE_CUTOFF` unknowns the raw LAPACK routines
``dgetrf``/``dgetrs`` (the ones ``scipy.linalg.lu_factor``/``lu_solve``
call, so factors and solutions are bit-equal to theirs, minus the
wrappers' per-call argument handling); above it SuperLU. Singular
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
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import dgetrf, dgetrs

from repro.errors import SingularMatrixError

#: Up to this many unknowns a dense solve is faster than SuperLU setup.
#: The single size switch: :mod:`repro.mna.pattern` assembles a dense
#: Fortran-order matrix for exactly the systems factored densely here.
DENSE_CUTOFF = 40


class LinearSolver:
    """Factor-and-solve helper bound to one matrix size.

    Instances are cheap; WavePipe tasks each use their own. The cached
    factorisation lives on the instance, never in shared state, and owns
    its memory: the dense path keeps the ``dgetrf`` factors plus a copy
    of the matrix (the reference a failed back-solve names its suspect
    unknown from), so the aliased workspace matrix it was handed may be
    reassembled at once. Failure is always a
    :class:`~repro.errors.SingularMatrixError` — from ``dgetrf``'s
    ``info`` (an exactly zero pivot), a non-finite factor (a NaN/inf
    stamp) or a non-finite solution — never a LAPACK warning.
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
        row_max = abs(matrix.tocsr()).max(axis=1).toarray().ravel()
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

    def factor(self, matrix, key: object | None = None) -> None:
        """Factorise *matrix*, replacing any cached factors.

        *matrix* is whatever :meth:`~repro.mna.system.MnaSystem.jacobian`
        returned — a Fortran-order ``(n, n)`` array up to
        :data:`DENSE_CUTOFF` unknowns, a CSC matrix above — or any dense
        or sparse square matrix. The factors never alias it: a workspace
        may overwrite the matrix as soon as this returns.

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
        # An owned Fortran-order copy: it outlives the (aliased) workspace
        # matrix as the reference for diagnostics, and dgetrf copies it
        # once more into the factors instead of converting it.
        if isinstance(matrix, np.ndarray):
            dense = np.array(matrix, dtype=float, order="F")
        else:
            dense = matrix.toarray(order="F").astype(float, copy=False)
        lu, piv, info = dgetrf(dense)
        # info > 0 is LAPACK's "U(info, info) is exactly zero".
        if info > 0 or not np.isfinite(lu).all():
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
            result, _ = dgetrs(*self._dense_lu, rhs)
            if not np.isfinite(result).all():
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
            matrices: the K variant Jacobians
                :meth:`~repro.mna.ensemble.EnsembleSystem.jacobian`
                returned (dense views or CSC matrices, one pattern).
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
