"""The assembled MNA system: residual, charge and Jacobian evaluation.

:class:`MnaSystem` owns the frozen Jacobian pattern and provides stateless
evaluation: every concurrent task allocates its own
:class:`~repro.devices.base.EvalOutputs` buffers via :meth:`make_buffers`
and passes them explicitly, so WavePipe tasks can evaluate the same system
at different time points simultaneously.

Equations solved (residual form):

    F(x, t) = f(x) + dq(x)/dt + s(t) + gshunt*x = 0

where ``dq/dt`` is replaced by the integration scheme's linear form
``alpha0*q(x) + beta`` (beta collects history), and ``gshunt`` is a tiny
diagonal conductance (``options.gmin``) that keeps otherwise-floating
unknowns (e.g. MOS gate nets) non-singular. The gshunt term appears in
both the residual and the Jacobian so Newton's model stays exact.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.devices.base import DeviceBank, EvalOutputs
from repro.mna.compiler import CompiledCircuit
from repro.mna.pattern import PatternBuilder


class MnaSystem:
    """Evaluation facade over a compiled circuit.

    *sims* is the variant axis: ``None`` for one circuit with 1-D state,
    K for an :class:`~repro.mna.ensemble.EnsembleSystem` whose state and
    buffers gain a trailing ``(..., K)`` axis. It is the one observable
    the transient engine selects its Newton kernel from.
    """

    def __init__(self, compiled: CompiledCircuit, sims: int | None = None):
        self.compiled = compiled
        self.sims = sims
        self.n = compiled.n
        self.options = compiled.options
        builder = PatternBuilder(self.n)
        for bank in compiled.banks:
            bank.register(builder)
        self.pattern = builder.finalize(extra_diagonal=True)
        self.gshunt = compiled.options.gmin
        self.voltage_mask = compiled.voltage_mask
        #: The voltage unknowns as a slice (views, not gathers): the
        #: compiler numbers the node voltages first.
        self.voltage_rows = slice(0, compiled.n_nodes)
        self.unknown_names = compiled.unknown_names
        #: True when any bank is nonlinear. Newton on a purely linear
        #: system converges in one exact step, so update damping is
        #: skipped entirely.
        self.has_nonlinear = any(bank.nonlinear for bank in compiled.banks)
        #: True when some bank junction-limits Newton updates; without one
        #: the Newton loops skip :meth:`limit` and its padded copies.
        self.has_limiter = any(
            type(bank).limit is not DeviceBank.limit for bank in compiled.banks
        )
        #: True when ``voltage_mask`` selects anything (damping looks only
        #: at voltage unknowns).
        self.has_voltages = bool(compiled.voltage_mask.any())
        # The banks holding charges: all a charge-only evaluation visits.
        self._charge_banks = [
            b for b in compiled.banks if type(b).charge is not DeviceBank.charge
        ]
        # The independent-source banks: their ``scale`` (DC source
        # stepping) and the time are all the source injection depends on.
        self._source_banks = [
            bank
            for bank in (compiled.vsource_bank, compiled.isource_bank)
            if bank is not None
        ]
        self._tolerances = (None, None)
        #: Trailing axis of every state/buffer array: ``()`` on the scalar
        #: path, ``(K,)`` for an ensemble (see :mod:`repro.devices.base`).
        self._tail = () if sims is None else (sims,)
        # Constant-stamp baselines every buffer set is seeded from (shared,
        # read-only): the linear banks' slots hold their stamps, the rest 0.
        self._g_base = np.zeros((self.pattern.n_g_slots, *self._tail))
        self._c_base = np.zeros((self.pattern.n_c_slots, *self._tail))
        for bank in compiled.banks:
            bank.write_static_stamps(self._g_base, self._c_base)

    def make_buffers(self) -> EvalOutputs:
        """Fresh evaluation buffers (one set per concurrent task).

        The slot arrays start from the constant-stamp baselines (linear
        banks stamp once per system, not per eval) and the first
        :meth:`jacobian` call attaches the set's own
        :class:`~repro.mna.pattern.AssemblyWorkspace`, so concurrent
        tasks share nothing mutable — the baselines are read-only.
        """
        return EvalOutputs(self.n, self._g_base, self._c_base, sims=self.sims)

    def eval(self, x: np.ndarray, t: float, out: EvalOutputs) -> np.ndarray:
        """Evaluate all banks at (x, t) into *out*.

        Returns the padded x — *out*'s own ``x_full`` buffer, overwritten
        by the next evaluation. The source injection ``out.s`` is rebuilt
        only when ``(t, source scales)`` differs from the buffer set's
        previous evaluation (see :meth:`EvalOutputs.reset
        <repro.devices.base.EvalOutputs.reset>`).
        """
        out.reset((t, *[bank.scale for bank in self._source_banks]))
        x_full = out.x_full
        x_full[: self.n] = x
        for bank in self.compiled.banks:
            bank.eval(x_full, t, out)
        return x_full

    def resistive_residual(self, out: EvalOutputs, x: np.ndarray) -> np.ndarray:
        """``f(x) + s(t) + gshunt*x`` (no charge term) from filled buffers."""
        return out.f[: self.n] + out.s[: self.n] + self.gshunt * x

    def charge_at(self, x: np.ndarray, out: EvalOutputs | None = None) -> np.ndarray:
        """The charge vector q(x), bit-equal to :meth:`eval`'s ``out.q``.

        Runs only the charge-holding banks' ``charge``: it zeroes and
        fills ``out.q`` (and ``out.x_full``) and leaves the resistive and
        source accumulators, the slot arrays and the source-injection key
        alone, so a Newton solve may reuse *out* afterwards as if this
        call had not happened. Returns a copy of ``q[:n]``; *out* defaults
        to fresh buffers.
        """
        out = out if out is not None else self.make_buffers()
        out.q.fill(0.0)
        x_full = out.x_full
        x_full[: self.n] = x
        for bank in self._charge_banks:
            bank.charge(x_full, out)
        return out.q[: self.n].copy()

    def _workspace(self, out: EvalOutputs):
        """*out*'s assembly workspace, created on first use."""
        ws = out.workspace
        if ws is None:
            ws = out.workspace = self.pattern.workspace(self.sims)
        return ws

    def jacobian(self, out: EvalOutputs, alpha0: float) -> np.ndarray | sp.csc_matrix:
        """``G + alpha0*C + gshunt*I`` from filled buffers.

        A Fortran-order ``(n, n)`` array up to
        :data:`~repro.linalg.solve.DENSE_CUTOFF` unknowns, a CSC matrix
        above — in both cases what
        :meth:`~repro.linalg.solve.LinearSolver.factor` takes without
        conversion. Assembled in place into the buffers' workspace
        matrix, which is aliased across calls — Newton factorises it
        immediately. Callers that retain matrices use
        :meth:`~repro.mna.pattern.JacobianPattern.assemble` instead.
        """
        return self._workspace(out).assemble(
            out.g_vals, out.c_vals, alpha0, diag_shift=self.gshunt
        )

    def limit(
        self,
        x_proposed: np.ndarray,
        x_previous: np.ndarray,
        changed_cols: np.ndarray | None = None,
    ) -> bool:
        """Run per-device junction limiting on padded vectors, in place.

        *changed_cols* (ensemble mode only) is a ``(K,)`` bool array that
        banks OR-update with the variant columns they altered.
        """
        changed = False
        for bank in self.compiled.banks:
            if bank.limit(x_proposed, x_previous, changed_cols):
                changed = True
        return changed

    @property
    def work_units_per_eval(self) -> float:
        return self.compiled.work_units_per_eval

    def convergence_tolerances(self, options=None) -> np.ndarray:
        """Per-unknown absolute tolerance: vntol for voltages, abstol for currents.

        Read-only and memoised on the two option values (one tuple swap,
        so concurrent solves with different options stay correct).
        """
        opts = options or self.options
        key = (opts.abstol, opts.vntol)
        cached_key, tol = self._tolerances
        if cached_key != key:
            tol = np.full(self.n, opts.abstol)
            tol[self.voltage_mask] = opts.vntol
            tol.flags.writeable = False
            self._tolerances = (key, tol)
        return tol
