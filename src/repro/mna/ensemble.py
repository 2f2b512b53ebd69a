"""Ensemble compilation: K parameter variants of one topology, one system.

Monte Carlo / PVT variants of a circuit share everything structural —
unknown numbering, device banks, the Jacobian sparsity pattern — and
differ only in per-device parameter values. :func:`ensemble_from_compiled`
exploits that: it verifies K compiled circuits are topologically
identical, stacks each bank's ``ensemble_params`` attributes into
``(n_devices, K)`` arrays, and wraps the result in an
:class:`EnsembleSystem` whose evaluation buffers carry the trailing
``sims`` axis end to end (see the shape contract in
:mod:`repro.devices.base`).

The per-variant :class:`~repro.mna.compiler.CompiledCircuit` objects are
kept alongside the batched system: DC operating points are solved per
variant on the scalar path (homotopy fallbacks mutate bank scale factors,
which must not be shared), and oracle checks compare each variant against
its own sequential run.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from repro.circuit.circuit import Circuit
from repro.devices.base import EvalOutputs
from repro.errors import SimulationError
from repro.mna.compiler import CompiledCircuit, compile_circuit
from repro.mna.system import MnaSystem
from repro.utils.options import SimOptions


class EnsembleSystem(MnaSystem):
    """MNA evaluation facade over K stacked parameter variants.

    An :class:`~repro.mna.system.MnaSystem` with ``sims == K``: every
    buffer gains a trailing ``(..., K)`` axis and ``jacobian`` assembles
    all K variant matrices through one
    :class:`~repro.mna.pattern.BlockAssemblyWorkspace` scatter.
    """

    def __init__(self, compiled: CompiledCircuit, sims: int):
        super().__init__(compiled, sims)

    def jacobian(self, out: EvalOutputs, alpha0: float):
        """All K variant Jacobians ``G_k + alpha0*C_k + gshunt*I`` (aliased):
        Fortran-order views of one block on a dense-size system, CSC
        matrices above.

        Same body as the scalar method but defined here, not inherited:
        ``wallbench``'s tracer wraps ``jacobian`` per class.
        """
        return self._workspace(out).assemble(
            out.g_vals, out.c_vals, alpha0, diag_shift=self.gshunt
        )


@dataclass
class EnsembleCompilation:
    """An ensemble system plus its per-variant scalar compilations."""

    system: EnsembleSystem
    variants: list[CompiledCircuit]

    @property
    def sims(self) -> int:
        return len(self.variants)


def _check_same_topology(compiled: list[CompiledCircuit]) -> None:
    ref = compiled[0]
    for k, other in enumerate(compiled[1:], start=1):
        if other.n != ref.n or other.unknown_names != ref.unknown_names:
            raise SimulationError(
                f"ensemble variant {k} has different unknowns than variant 0 "
                f"({other.n} vs {ref.n}); ensembles require identical topology"
            )
        if other.initial_conditions != ref.initial_conditions:
            raise SimulationError(
                f"ensemble variant {k} has different initial conditions than "
                "variant 0; ensembles require identical topology"
            )
        if len(other.banks) != len(ref.banks) or any(
            type(ob) is not type(rb) or ob.count != rb.count or ob.names != rb.names
            for ob, rb in zip(other.banks, ref.banks)
        ):
            raise SimulationError(
                f"ensemble variant {k} has different device banks than variant 0; "
                "ensembles require identical topology"
            )
        for ob, rb in zip(other.banks, ref.banks):
            for attr, val in vars(rb).items():
                if isinstance(val, np.ndarray) and val.dtype == np.int64:
                    if not np.array_equal(val, getattr(ob, attr)):
                        raise SimulationError(
                            f"ensemble variant {k}: bank {type(rb).__name__} "
                            f"index array {attr!r} differs from variant 0; "
                            "ensembles require identical topology"
                        )


def _ensemble_bank(variant_banks: list, sims: int):
    """One bank evaluating K variants: stack the jitterable parameters."""
    ref = variant_banks[0]
    ref.ensure_ensemble(sims)
    bank = copy.copy(ref)
    for attr in ref.ensemble_params:
        bank_vals = [np.asarray(getattr(vb, attr), dtype=float) for vb in variant_banks]
        setattr(bank, attr, np.stack(bank_vals, axis=1))
    bank.sims = sims
    # After stacking: constants precomputed from the parameters must be
    # the K-variant ones, not the copied variant-0 values.
    bank.derive()
    return bank


def ensemble_from_compiled(compiled: list[CompiledCircuit]) -> EnsembleCompilation:
    """Batch K topologically-identical compiled circuits into one system.

    Raises :class:`~repro.errors.SimulationError` when the variants do not
    share a topology or a bank type does not support ensemble evaluation.
    """
    if not compiled:
        raise SimulationError("ensemble needs at least one variant")
    sims = len(compiled)
    _check_same_topology(compiled)

    base = copy.copy(compiled[0])
    banks = []
    vsource = isource = None
    for i, ref_bank in enumerate(compiled[0].banks):
        bank = _ensemble_bank([c.banks[i] for c in compiled], sims)
        banks.append(bank)
        if ref_bank is compiled[0].vsource_bank:
            vsource = bank
        if ref_bank is compiled[0].isource_bank:
            isource = bank
    base.banks = banks
    base.vsource_bank = vsource
    base.isource_bank = isource
    if hasattr(base, "_eval_cost_by_class"):
        del base._eval_cost_by_class

    return EnsembleCompilation(system=EnsembleSystem(base, sims), variants=compiled)


def compile_ensemble(
    circuits: list[Circuit], options: SimOptions | None = None
) -> EnsembleCompilation:
    """Compile K same-topology circuit variants into one ensemble system."""
    opts = options or SimOptions()
    return ensemble_from_compiled([compile_circuit(c, opts) for c in circuits])
