"""Sparse Jacobian pattern cache.

MNA assembly is the inner loop of a SPICE engine: every Newton iteration
rebuilds the Jacobian ``J = G(x) + alpha0 * C(x)`` from per-device stamps.
Rebuilding a scipy COO matrix each time re-sorts and re-deduplicates the
pattern — wasteful, since the pattern never changes after compilation.

:class:`PatternBuilder` collects the (row, col) positions of every stamp
*slot* once, at compile time, separately for the conductance (G) and
capacitance (C) streams. :meth:`PatternBuilder.finalize` computes the CSC
structure of the union pattern and a scatter map from each slot to its CSC
data index. :meth:`JacobianPattern.assemble` then builds a Jacobian with
two ``np.add.at`` scatters (:meth:`JacobianPattern.scatter`) and no sorting.

Systems small enough for the dense LU (``size <=``
:data:`~repro.linalg.solve.DENSE_CUTOFF`) skip the sparse container
altogether on the Newton path: their workspaces scatter the same slots,
in the same order, through flat column-major targets straight into the
Fortran-order ``(n, n)`` array LAPACK factors.

Ground handling: unknowns are indexed ``0..n-1``; index ``n`` is a *trash*
position. Stamps touching ground write to row/col ``n`` and are scattered
into a sacrificial data slot that never enters the matrix, so device banks
need no ground branches in their inner loops.
"""

from __future__ import annotations

import threading

import numpy as np
import scipy.sparse as sp

from repro.errors import AssemblyError
from repro.linalg.solve import DENSE_CUTOFF, SparseOrder


def flat_index(index: np.ndarray, sims: int, rows: int | None = None) -> np.ndarray:
    """Flat positions of rows *index* (every column) of a 2-D ``(R, sims)`` buffer.

    Ordered row-major over ``(index, column)`` — the order in which
    ``np.add.at(buffer, index, values)`` visits the elements — so
    ``np.add.at(flat buffer, flat_index(...), values.reshape(-1))`` is
    bit-equal to the 2-D call and several times cheaper. C order by
    default; passing *rows* (= R) addresses a Fortran-order buffer.
    """
    index = np.asarray(index, dtype=np.int64)[:, None]
    columns = np.arange(sims)
    if rows is None:
        return (index * sims + columns).ravel()
    return (index + columns * rows).ravel()


class SlotRange:
    """Handle to a contiguous run of stamp slots owned by one device bank."""

    __slots__ = ("start", "stop")

    def __init__(self, start: int, stop: int):
        self.start = start
        self.stop = stop

    def __len__(self) -> int:
        return self.stop - self.start

    @property
    def slice(self) -> slice:
        return slice(self.start, self.stop)


class PatternBuilder:
    """Collects stamp positions during compilation.

    Args:
        size: number of real unknowns; index ``size`` is the trash slot.
    """

    def __init__(self, size: int):
        if size <= 0:
            raise AssemblyError("system must have at least one unknown")
        self.size = size
        self._g_rows: list[np.ndarray] = []
        self._g_cols: list[np.ndarray] = []
        self._c_rows: list[np.ndarray] = []
        self._c_cols: list[np.ndarray] = []
        self._g_count = 0
        self._c_count = 0
        self._finalized = False

    def _check_indices(self, rows: np.ndarray, cols: np.ndarray) -> None:
        if rows.shape != cols.shape:
            raise AssemblyError("stamp rows/cols must have identical shape")
        if rows.size and (rows.min() < 0 or rows.max() > self.size):
            raise AssemblyError("stamp row index out of range")
        if cols.size and (cols.min() < 0 or cols.max() > self.size):
            raise AssemblyError("stamp col index out of range")

    def add_g_entries(self, rows, cols) -> SlotRange:
        """Register conductance-stream stamp positions; returns their slots."""
        if self._finalized:
            raise AssemblyError("pattern already finalized")
        rows = np.asarray(rows, dtype=np.int64).ravel()
        cols = np.asarray(cols, dtype=np.int64).ravel()
        self._check_indices(rows, cols)
        self._g_rows.append(rows)
        self._g_cols.append(cols)
        handle = SlotRange(self._g_count, self._g_count + rows.size)
        self._g_count += rows.size
        return handle

    def add_c_entries(self, rows, cols) -> SlotRange:
        """Register capacitance-stream stamp positions; returns their slots."""
        if self._finalized:
            raise AssemblyError("pattern already finalized")
        rows = np.asarray(rows, dtype=np.int64).ravel()
        cols = np.asarray(cols, dtype=np.int64).ravel()
        self._check_indices(rows, cols)
        self._c_rows.append(rows)
        self._c_cols.append(cols)
        handle = SlotRange(self._c_count, self._c_count + rows.size)
        self._c_count += rows.size
        return handle

    def finalize(self, extra_diagonal: bool = True) -> "JacobianPattern":
        """Compute the CSC union pattern and slot scatter maps.

        Args:
            extra_diagonal: include every diagonal position in the pattern
                so gmin regularisation can always be added without a
                pattern change.
        """
        self._finalized = True
        n = self.size

        def concat(parts: list[np.ndarray]) -> np.ndarray:
            if not parts:
                return np.zeros(0, dtype=np.int64)
            return np.concatenate(parts)

        g_rows, g_cols = concat(self._g_rows), concat(self._g_cols)
        c_rows, c_cols = concat(self._c_rows), concat(self._c_cols)

        diag = np.arange(n, dtype=np.int64) if extra_diagonal else np.zeros(0, np.int64)
        all_rows = np.concatenate([g_rows, c_rows, diag])
        all_cols = np.concatenate([g_cols, c_cols, diag])

        valid = (all_rows < n) & (all_cols < n)
        # Linear key in CSC order: column-major.
        keys = all_cols[valid] * np.int64(n) + all_rows[valid]
        unique_keys, inverse = np.unique(keys, return_inverse=True)
        nnz = unique_keys.size

        # Map every slot (valid -> its unique position, invalid -> trash nnz).
        slot_targets = np.full(all_rows.size, nnz, dtype=np.int64)
        slot_targets[valid] = inverse

        n_g = g_rows.size
        n_c = c_rows.size
        g_map = slot_targets[:n_g]
        c_map = slot_targets[n_g : n_g + n_c]
        diag_map = slot_targets[n_g + n_c :]

        indices = (unique_keys % n).astype(np.int32)
        col_of = unique_keys // n
        indptr = np.zeros(n + 1, dtype=np.int32)
        np.add.at(indptr, col_of + 1, 1)
        np.cumsum(indptr, out=indptr)

        return JacobianPattern(
            size=n,
            nnz=int(nnz),
            indptr=indptr,
            indices=indices,
            g_map=g_map,
            c_map=c_map,
            diag_map=diag_map,
            n_g_slots=n_g,
            n_c_slots=n_c,
        )


class JacobianPattern:
    """Frozen CSC pattern plus scatter maps for fast Jacobian assembly."""

    def __init__(
        self,
        size: int,
        nnz: int,
        indptr: np.ndarray,
        indices: np.ndarray,
        g_map: np.ndarray,
        c_map: np.ndarray,
        diag_map: np.ndarray,
        n_g_slots: int,
        n_c_slots: int,
    ):
        self.size = size
        self.nnz = nnz
        self.indptr = indptr
        self.indices = indices
        self.g_map = g_map
        self.c_map = c_map
        self.diag_map = diag_map
        self.n_g_slots = n_g_slots
        self.n_c_slots = n_c_slots
        #: True when the workspaces assemble (and the solvers factor) a
        #: dense matrix; the flat column-major position of every slot
        #: then replaces its CSC data index (trash slot ``n*n``).
        self.dense = size <= DENSE_CUTOFF
        if self.dense:
            flat = np.append(
                np.repeat(np.arange(size), np.diff(indptr)) * size + indices,
                size * size,
            )
            self._dense_maps = (flat[g_map], flat[c_map], flat[diag_map])
        self._order: SparseOrder | None = None
        self._order_lock = threading.Lock()

    @property
    def order(self) -> SparseOrder:
        """The fill-reducing ordering every solver of this (sparse) pattern
        factors with: computed once, on first use, under a lock so racing
        first factors share one instance, and dropped with the pattern."""
        if self._order is None:
            with self._order_lock:
                if self._order is None:
                    self._order = SparseOrder(self.indptr, self.indices, self.size)
        return self._order

    def assemble(
        self,
        g_vals: np.ndarray,
        c_vals: np.ndarray,
        alpha0: float,
        diag_shift: float = 0.0,
    ) -> sp.csc_matrix:
        """Build ``G + alpha0*C (+ diag_shift*I)`` as a fresh CSC matrix.

        *g_vals*/*c_vals* are the full slot value arrays filled by the
        device banks for the current operating point. For callers that
        retain the matrix (AC analysis, tests); the Newton loop assembles
        in place through an :class:`AssemblyWorkspace`.
        """
        if g_vals.size != self.n_g_slots or c_vals.size != self.n_c_slots:
            raise AssemblyError(
                f"slot value sizes ({g_vals.size}, {c_vals.size}) do not match "
                f"pattern ({self.n_g_slots}, {self.n_c_slots})"
            )
        data = np.zeros(self.nnz + 1)
        self.scatter(data, g_vals, c_vals, alpha0, diag_shift, self.maps(dense=False))
        return sp.csc_matrix(
            (data[: self.nnz], self.indices, self.indptr),
            shape=(self.size, self.size),
        )

    def maps(self, dense: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The (g, c, diagonal) scatter maps into CSC data (``nnz + 1``
        rows) or, *dense*, into column-major matrix positions (``n*n + 1``
        rows); the last row is the trash slot."""
        if dense:
            return self._dense_maps
        return self.g_map, self.c_map, self.diag_map

    def scatter(
        self,
        data: np.ndarray,
        g_vals: np.ndarray,
        c_vals: np.ndarray,
        alpha0: float,
        diag_shift: float,
        maps: tuple[np.ndarray, np.ndarray, np.ndarray],
    ) -> None:
        """Accumulate ``G + alpha0*C (+ diag_shift*I)`` into zeroed *data*.

        *maps* are :meth:`maps` (or the flat positions of their rows in a
        2-D block, with raveled slot values: see
        :class:`BlockAssemblyWorkspace`). Every assembly path goes through
        here and all layouts visit the slots in the same order, so their
        sums cannot drift apart (a K=1 ensemble must stay bit-identical
        to the scalar path, a dense Jacobian to
        ``assemble(...).toarray()``).
        """
        g_map, c_map, diag_map = maps
        np.add.at(data, g_map, g_vals)
        if alpha0 != 0.0 and c_vals.size:
            np.add.at(data, c_map, alpha0 * c_vals)
        if diag_shift:
            np.add.at(data, diag_map, diag_shift)

    def workspace(self, sims: int | None = None):
        """A reusable in-place assembly buffer bound to this pattern.

        An :class:`AssemblyWorkspace` on the scalar path (``sims is
        None``), a K-variant :class:`BlockAssemblyWorkspace` otherwise.
        """
        if sims is None:
            return AssemblyWorkspace(self)
        return BlockAssemblyWorkspace(self, sims)


class AssemblyWorkspace:
    """Persistent assembly buffers for one pattern (how Newton assembles).

    :meth:`JacobianPattern.assemble` allocates a fresh data array and a
    fresh ``csc_matrix`` per call — measurable overhead when Newton
    assembles thousands of Jacobians over an unchanging pattern. A
    workspace allocates the matrix once and rewrites it in place: a
    Fortran-order ``(n, n)`` array when the pattern is
    :attr:`~JacobianPattern.dense` (what ``dgetrf`` takes as is — no
    sparse container, no ``toarray``), a ``csc_matrix`` otherwise.

    The returned matrix is therefore *aliased*: a later :meth:`assemble`
    call overwrites it. That is safe for the Newton hot loop, which
    factorises the matrix immediately (the factorisation copies what it
    needs) and never holds two Jacobians at once. Callers that retain
    matrices must use :meth:`JacobianPattern.assemble` instead.

    One workspace per buffer set
    (:meth:`~repro.mna.system.MnaSystem.jacobian` creates it inside the
    task's :class:`~repro.devices.base.EvalOutputs` on first use), so
    WavePipe tasks never share one.
    """

    __slots__ = ("pattern", "_maps", "_data", "_matrix")

    def __init__(self, pattern: JacobianPattern):
        self.pattern = pattern
        self._maps = pattern.maps(pattern.dense)
        n = pattern.size
        if pattern.dense:
            self._data = np.zeros(n * n + 1)
            self._matrix = self._data[: n * n].reshape((n, n), order="F")
        else:
            self._data = np.zeros(pattern.nnz + 1)
            self._matrix = sp.csc_matrix(
                (self._data[: pattern.nnz], pattern.indices, pattern.indptr),
                shape=(n, n),
            )

    def assemble(
        self,
        g_vals: np.ndarray,
        c_vals: np.ndarray,
        alpha0: float,
        diag_shift: float = 0.0,
    ) -> np.ndarray | sp.csc_matrix:
        """In-place equivalent of :meth:`JacobianPattern.assemble`."""
        self._data.fill(0.0)
        self.pattern.scatter(self._data, g_vals, c_vals, alpha0, diag_shift, self._maps)
        return self._matrix


class BlockAssemblyWorkspace:
    """Ensemble assembly: K Jacobians over one shared sparsity pattern.

    One ``np.add.at`` per stream scatters all K variants' slot values
    (shaped ``(n_slots, K)`` per the ensemble device contract) into one
    block whose columns are contiguous, through flat positions computed
    once here (:func:`flat_index`): a 1-D ``add.at``
    is bit-equal to the 2-D one and several times cheaper. On a
    :attr:`~JacobianPattern.dense` pattern column k of the block *is*
    variant k's matrix — the K returned matrices are Fortran-order ``(n,
    n)`` views of it. On a sparse pattern each variant's column is copied
    into that variant's owned CSC data array, because scipy will not
    alias a column of a 2-D block; the copy is O(nnz) per variant, the
    same order as the scatter itself.

    The K matrices are built once and aliased exactly like
    :class:`AssemblyWorkspace` — a later :meth:`assemble` overwrites all
    of them.
    """

    __slots__ = ("pattern", "sims", "_scatter", "_flat", "_maps", "_datas", "_matrices")

    def __init__(self, pattern: JacobianPattern, sims: int):
        if sims < 1:
            raise AssemblyError("ensemble workspace needs sims >= 1")
        self.pattern = pattern
        self.sims = sims
        n = pattern.size
        rows = n * n if pattern.dense else pattern.nnz
        # F-order: per-variant columns are contiguous.
        self._flat = np.zeros(sims * (rows + 1))
        self._scatter = self._flat.reshape(sims, rows + 1).T
        self._maps = tuple(
            flat_index(m, sims, rows=rows + 1) for m in pattern.maps(pattern.dense)
        )
        if pattern.dense:
            self._datas = ()
            self._matrices = [
                self._scatter[:rows, k].reshape((n, n), order="F") for k in range(sims)
            ]
        else:
            self._datas = [np.zeros(rows) for _ in range(sims)]
            self._matrices = [
                sp.csc_matrix((data, pattern.indices, pattern.indptr), shape=(n, n))
                for data in self._datas
            ]

    def assemble(
        self,
        g_vals: np.ndarray,
        c_vals: np.ndarray,
        alpha0: float,
        diag_shift: float = 0.0,
    ) -> list[np.ndarray] | list[sp.csc_matrix]:
        """Assemble all K variant Jacobians; returns the aliased matrices.

        *g_vals*/*c_vals* are ``(n_slots, K)`` ensemble slot arrays.
        """
        pattern = self.pattern
        if g_vals.shape != (pattern.n_g_slots, self.sims) or c_vals.shape != (
            pattern.n_c_slots,
            self.sims,
        ):
            raise AssemblyError(
                f"ensemble slot value shapes ({g_vals.shape}, {c_vals.shape}) do "
                f"not match pattern ({pattern.n_g_slots}, {pattern.n_c_slots}) "
                f"x sims={self.sims}"
            )
        self._flat.fill(0.0)
        g_flat, c_flat = g_vals.reshape(-1), c_vals.reshape(-1)
        pattern.scatter(self._flat, g_flat, c_flat, alpha0, diag_shift, self._maps)
        for k, data in enumerate(self._datas):
            np.copyto(data, self._scatter[: pattern.nnz, k])
        return self._matrices
