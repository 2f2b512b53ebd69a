"""Lockstep damped Newton for an ensemble of K parameter variants.

One call of :func:`ensemble_newton_solve` drives all K variants of an
:class:`~repro.mna.ensemble.EnsembleSystem` through the same Newton loop:
device evaluation and Jacobian assembly are batched (one vectorised pass
over ``(n, K)`` state), while factorisation, back-solve, damping,
limiting, bypass policy and convergence are tracked *per variant* so each
column follows exactly the trajectory the scalar solver would give it.
Converged variants freeze — their column stops moving and their solver
stops factoring — until every variant has converged or the iteration cap
is hit.

Failure semantics: any variant diverging (non-finite residual) or hitting
a singular Jacobian fails the whole solve, exactly as one job would fail
its own timestep; the transient engine then shrinks the shared step for
the ensemble. K=1 reproduces the scalar solver bit for bit (same
residuals, same factors, same update, same convergence test — and the
same work units, since the ensemble eval margin vanishes at K=1).

Cost model: K variants share one vectorised device evaluation, so an
ensemble iteration charges ``work_units_per_eval *``
:func:`~repro.solver.newton.eval_factor` instead of K full evaluations;
each *active* variant then pays its own factorisation (or
back-solve-only bypass) charge, identical per variant to the scalar
model.

This module is the ensemble *kernel* only: the instrumented wrapper, the
result type and the transient driver around it are the scalar path's
(:func:`~repro.solver.newton.instrumented_solve`,
:class:`~repro.solver.newton.NewtonResult`,
:mod:`repro.engine.transient`), which selects this loop when the system
carries a ``sims`` axis.
"""

from __future__ import annotations

import numpy as np

from repro.devices.base import EvalOutputs
from repro.errors import SingularMatrixError
from repro.linalg.solve import BlockSolver
from repro.mna.ensemble import EnsembleSystem
from repro.solver.newton import NewtonResult, eval_factor, factor_key, instrumented_solve
from repro.utils.options import SimOptions


def ensemble_iteration_work(
    system: EnsembleSystem, factored: int, bypassed: int
) -> float:
    """Work units for one lockstep iteration.

    One shared device evaluation covers all K variants at the marginal
    rate; *factored* variants pay the full per-variant LU charge and
    *bypassed* ones the back-solve-only charge (frozen variants pay
    nothing), matching :func:`repro.solver.newton.iteration_work` per
    variant.
    """
    nnz = system.pattern.nnz
    return (
        system.work_units_per_eval * eval_factor(system)
        + 0.05 * nnz * factored
        + 0.01 * nnz * bypassed
    )


def ensemble_newton_solve(
    system: EnsembleSystem,
    t: float,
    alpha0: float,
    beta,
    x0: np.ndarray,
    options: SimOptions | None = None,
    out: EvalOutputs | None = None,
    solver: BlockSolver | None = None,
    iter_cap: int | None = None,
) -> NewtonResult:
    """Solve the discretised equations for all K variants at time *t*.

    Arguments mirror :func:`repro.solver.newton.newton_solve`; *x0* and
    *beta* carry the trailing variant axis (``beta`` may also be the
    scalar 0.0 for DC-style solves).
    """
    return instrumented_solve(
        _ensemble_iterate, system, t, alpha0, beta, x0, options, out, solver, iter_cap
    )


def _ensemble_iterate(
    system: EnsembleSystem,
    t: float,
    alpha0: float,
    beta,
    x0: np.ndarray,
    opts: SimOptions,
    out: EvalOutputs | None,
    solver: BlockSolver | None,
    iter_cap: int | None,
) -> NewtonResult:
    """The lockstep damped-Newton loop (instrumentation-free hot path)."""
    sims = system.sims
    n = system.n
    out = out if out is not None else system.make_buffers()
    solver = solver or BlockSolver(sims, system.unknown_names, system.pattern)
    max_iters = iter_cap if iter_cap is not None else opts.max_newton_iters

    exact = not system.has_nonlinear
    key = factor_key(system, alpha0, opts.jacobian_reuse)
    f0 = solver.factor_count
    s0 = solver.solve_count
    rh0 = solver.reuse_hits
    fallbacks = 0
    work = 0.0
    prev_norm = np.full(sims, np.inf)
    allow_bypass = np.ones(sims, dtype=bool)
    converged_mask = np.zeros(sims, dtype=bool)

    def finish(converged: bool, iterations: int, norms: np.ndarray, failure: str = ""):
        norm = float(norms.max()) if norms.size else 0.0
        return NewtonResult(
            x, converged, iterations, norm, work,
            failure=failure,
            lu_factors=solver.factor_count - f0,
            lu_solves=solver.solve_count - s0,
            lu_reuse_hits=solver.reuse_hits - rh0,
            bypass_fallbacks=fallbacks,
        )

    abs_tol = system.convergence_tolerances(opts)[:, None]
    charge_term = alpha0 != 0.0 or np.ndim(beta) > 0
    # Global damping, as in the scalar loop: nonlinear systems only.
    voltage_limit = (
        opts.voltage_limit if system.has_nonlinear and system.has_voltages else 0.0
    )
    damping = opts.damping if system.has_nonlinear else 1.0
    voltage_rows = system.voltage_rows
    x_new_full, x_full = out.pads
    changed_cols = np.zeros(sims, dtype=bool)
    x = np.asarray(x0, dtype=float).copy()
    if x.shape != (n, sims):
        raise ValueError(f"ensemble x0 must be shaped ({n}, {sims}), got {x.shape}")
    residual_norms = np.full(sims, np.inf)

    for iteration in range(1, max_iters + 1):
        active = ~converged_mask
        system.eval(x, t, out)
        residual = system.resistive_residual(out, x)
        if charge_term:
            residual = residual + alpha0 * out.q[:n] + beta
        residual_norms = np.abs(residual).max(axis=0) if n else np.zeros(sims)
        if not np.isfinite(residual_norms[active]).all():
            work += ensemble_iteration_work(system, factored=int(active.sum()), bypassed=0)
            return finish(False, iteration, residual_norms,
                          failure="residual diverged (non-finite)")

        # Per-variant Jacobian bypass, mirroring the scalar policy; no
        # factors match a None key, so then nothing can be bypassed.
        bypass = np.zeros(sims, dtype=bool)
        if key is not None:
            for k in np.nonzero(active)[0]:
                sk = solver.solvers[k]
                bk = allow_bypass[k] and sk.matches(key)
                if bk and not exact:
                    if opts.refactor_every > 0 and sk.bypass_streak >= opts.refactor_every:
                        bk = False
                    elif residual_norms[k] > opts.reuse_stall_ratio * prev_norm[k]:
                        bk = False
                        allow_bypass[k] = False
                        fallbacks += 1
                bypass[k] = bk
            prev_norm[active] = residual_norms[active]

        delta = np.zeros((n, sims))
        need_factor = active & ~bypass
        # Bypassed variants first: a stale-singular fallback joins the
        # factor set for this same iteration, as in the scalar solver.
        for k in np.nonzero(active & bypass)[0]:
            sk = solver.solvers[k]
            try:
                delta[:, k] = sk.solve_reused(-residual[:, k])
                sk.bypass_streak += 1
            except SingularMatrixError:
                fallbacks += 1
                allow_bypass[k] = False
                bypass[k] = False
                need_factor[k] = True
        try:
            if need_factor.any():
                matrices = system.jacobian(out, alpha0)
                solver.factor_all(matrices, key=key, active=need_factor)
                for k in np.nonzero(need_factor)[0]:
                    delta[:, k] = solver.solvers[k].resolve(-residual[:, k])
        except SingularMatrixError as exc:
            work += ensemble_iteration_work(
                system, factored=int(need_factor.sum()), bypassed=int(bypass.sum())
            )
            return finish(False, iteration, residual_norms,
                          failure=f"singular Jacobian: {exc}")
        work += ensemble_iteration_work(
            system, factored=int(need_factor.sum()), bypassed=int((active & bypass).sum())
        )

        # Global damping, per variant column (scalar semantics per column).
        if voltage_limit > 0:
            vmax = np.abs(delta[voltage_rows]).max(axis=0)
            hot = vmax > voltage_limit
            if hot.any():
                scale_cols = np.where(hot, voltage_limit / np.maximum(vmax, 1e-300), 1.0)
                delta = delta * scale_cols
        if damping < 1.0:
            delta = delta * damping

        x_new = x + delta
        x_new[:, converged_mask] = x[:, converged_mask]

        # Per-device junction limiting on the padded iterate, tracking
        # which variant columns were touched.
        if system.has_limiter:
            changed_cols.fill(False)
            x_new_full[:n] = x_new
            x_full[:n] = x
            if system.limit(x_new_full, x_full, changed_cols):
                x_new = x_new_full[:n].copy()

        scale = np.maximum(np.abs(x_new), np.abs(x))
        small = (np.abs(x_new - x) <= opts.reltol * scale + abs_tol).all(axis=0)
        x = x_new
        newly = active & small & ~changed_cols
        converged_mask |= newly
        if converged_mask.all():
            return finish(True, iteration, residual_norms)

    failure = "" if iter_cap is not None else "iteration limit reached"
    return finish(False, max_iters, residual_norms, failure=failure)
