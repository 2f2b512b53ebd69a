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

Sparse systems are ordered once per structure, the circuit-simulator
way (SPICE orders once and refactors numerically; KLU orders A+Aᵀ and
pivots with a diagonal-preferring threshold): a :class:`SparseOrder`
holds a minimum-degree ordering of A+Aᵀ, and every factorisation
gathers the matrix into that order and calls ``splu`` with
``permc_spec="NATURAL"`` and SPICE's pivot threshold, so no factor runs
COLAMD. (An earlier finding that a cached ordering refactors 2-3x
slower came from applying SuperLU's ``perm_c`` inverted: column ``i``
moves *to* position ``perm_c[i]``, so the permuted matrix is
``A[:, argsort(perm_c)]``, not ``A[:, perm_c]``.) A solver built with
its system's :class:`~repro.mna.pattern.JacobianPattern` takes the
ordering the pattern computed once; any other sparse matrix is ordered
on the spot. A factorisation that reports an exactly singular factor
under the threshold pivot is retried once with partial pivoting
(``diag_pivot_thresh=1.0``) before it is declared singular: an MNA
matrix is not diagonally dominant (a voltage source's branch row has
only ``gshunt`` on its diagonal), and on long inverter chains the
threshold pivot can leave the symmetric order without a usable pivot.

All cache state is per-instance: each engine lane owns a solver and runs
at most one task per stage, so reuse never crosses thread boundaries.
The one thing solvers share is their pattern's ordering, which is
read-only once computed.
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

#: SuperLU options of every sparse factorisation. ``diag_pivot_thresh`` is
#: SPICE's PIVREL: the diagonal pivot is kept while it is at least this
#: fraction of the largest entry in its column. One-column panels and no
#: relaxed supernodes suit circuit matrices, whose supernodes are narrow:
#: SuperLU's defaults (wide panels, relaxed supernodes) factor the 1 025-
#: unknown grid 2.3x and a 1 000-stage inverter chain 60x slower.
SPLU_OPTIONS = {"diag_pivot_thresh": 1e-3, "panel_size": 1, "relax": 1}

#: The one retry of a factorisation the threshold pivot found singular.
PARTIAL_PIVOT = {**SPLU_OPTIONS, "diag_pivot_thresh": 1.0}


class SparseOrder:
    """A fill-reducing symmetric ordering of one square CSC structure.

    ``q`` is a minimum-degree ordering of A+Aᵀ (SuperLU's
    ``MMD_AT_PLUS_A`` run on a diagonally dominant surrogate with that
    structure, so its own factorisation cannot fail); the matrix factored
    is ``A[q][:, q]``, whose CSC structure is ``indptr``/``indices`` and
    whose data is ``A.data[gather]``. Depends on the structure alone, so
    one instance serves every matrix with it.
    """

    __slots__ = ("q", "indptr", "indices", "gather")

    def __init__(self, indptr: np.ndarray, indices: np.ndarray, n: int):
        ones = sp.csc_matrix((np.ones(indices.size), indices, indptr), shape=(n, n))
        surrogate = (ones + ones.T + sp.identity(n) * 2 * n).tocsc()
        # SuperLU moves column i *to* position where[i], so q is its inverse.
        where = spla.splu(surrogate, permc_spec="MMD_AT_PLUS_A", **SPLU_OPTIONS).perm_c
        self.q = np.argsort(where)
        rows, cols = where[indices], where[np.repeat(np.arange(n), np.diff(indptr))]
        self.gather = np.lexsort((rows, cols))
        self.indices = rows[self.gather].astype(np.intc)
        self.indptr = np.append(0, np.cumsum(np.bincount(cols, minlength=n))).astype(np.intc)


class LinearSolver:
    """Factor-and-solve helper bound to one matrix size.

    Each engine lane keeps one for the whole run, and a lane runs at
    most one WavePipe task at a time. The cached factorisation lives on
    the instance, never in shared state, and owns its memory: the dense
    path keeps the ``dgetrf`` factors plus a copy of the matrix, the
    sparse path the SuperLU factors plus the permuted gather it factored
    (the reference a failed back-solve names its suspect unknown from),
    so the aliased workspace matrix it was handed may be reassembled at
    once. Failure is always a
    :class:`~repro.errors.SingularMatrixError` — from ``dgetrf``'s
    ``info`` (an exactly zero pivot), a non-finite factor (a NaN/inf
    stamp) or a non-finite solution — never a LAPACK warning.
    """

    def __init__(self, unknown_names: list[str] | None = None, pattern=None):
        self.unknown_names = unknown_names
        #: The system's :class:`~repro.mna.pattern.JacobianPattern`, whose
        #: one :class:`SparseOrder` factors every matrix with its structure.
        self.pattern = pattern
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

    def _suspect_sparse(self, matrix: sp.csc_matrix, q: np.ndarray | None = None) -> str | None:
        """The dense heuristic on a sparse *matrix*; *q* maps a row of
        the permuted ``A[q][:, q]`` back to its unknown."""
        row_max = abs(matrix.tocsr()).max(axis=1).toarray().ravel()
        index = int(np.argmin(row_max))
        return self._name(index if q is None else int(q[index]))

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

    def _order(self, matrix) -> tuple[sp.csc_matrix, SparseOrder]:
        """*matrix* as canonical CSC and the ordering of its structure."""
        pattern = self.pattern
        if (
            pattern is not None
            and sp.issparse(matrix)
            and matrix.format == "csc"
            and np.array_equal(matrix.indptr, pattern.indptr)
            and np.array_equal(matrix.indices, pattern.indices)
        ):
            return matrix, pattern.order
        matrix = sp.csc_matrix(matrix, dtype=float, copy=True)
        matrix.sum_duplicates()
        return matrix, SparseOrder(matrix.indptr, matrix.indices, matrix.shape[0])

    def _factor_sparse(self, matrix) -> None:
        self.factor_count += 1
        matrix, order = self._order(matrix)
        # The gather is an owned copy: the (aliased) workspace matrix may
        # be reassembled while it serves as the diagnostic reference.
        permuted = sp.csc_matrix(
            (matrix.data[order.gather], order.indices, order.indptr), shape=matrix.shape
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", spla.MatrixRankWarning)
            try:
                lu = spla.splu(permuted, permc_spec="NATURAL", **SPLU_OPTIONS)
            except RuntimeError:
                try:
                    lu = spla.splu(permuted, permc_spec="NATURAL", **PARTIAL_PIVOT)
                except RuntimeError as exc:
                    self._mode = None
                    raise SingularMatrixError(
                        f"sparse factorisation failed: {exc}",
                        unknown=self._suspect_sparse(permuted, order.q),
                    ) from None
        self._sparse_lu = (lu, order.q)
        self._sparse_ref = permuted
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
        lu, q = self._sparse_lu
        permuted = lu.solve(np.asarray(rhs)[q])
        result = np.empty_like(permuted)
        result[q] = permuted
        if not np.all(np.isfinite(result)):
            raise SingularMatrixError(
                "sparse solve produced non-finite values",
                unknown=self._suspect_sparse(self._sparse_ref, q),
            )
        return result


class BlockSolver:
    """K independent per-variant solvers for an ensemble.

    Each variant factorises its own numeric Jacobian and keeps its own
    factor cache — the modified-Newton bypass freezes and refactors
    variants individually — so the ensemble Newton loop drives
    ``solvers[k]`` directly for back-solves and bypass decisions.
    """

    def __init__(self, sims: int, unknown_names: list[str] | None = None, pattern=None):
        self.sims = sims
        self.solvers = [LinearSolver(unknown_names, pattern) for _ in range(sims)]

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
