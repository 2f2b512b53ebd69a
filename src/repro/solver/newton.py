"""Damped Newton–Raphson for the discretised circuit equations.

One call of :func:`newton_solve` finds x with

    F(x) = f(x) + s(t) + gshunt*x + alpha0*q(x) + beta = 0

where ``alpha0``/``beta`` encode the integration scheme (``alpha0 = 0``,
``beta = 0`` gives the DC equations). Convergence follows SPICE: the
iteration stops when every component of the update satisfies
``|dx_i| <= reltol*max(|x_i|, |x_prev_i|) + tol_i`` (vntol for voltages,
abstol for currents) *and* no device limiter fired on the accepted iterate.

The solver is stateless and re-entrant: all scratch state lives in the
caller-provided :class:`~repro.devices.base.EvalOutputs` buffers, so
concurrent WavePipe tasks can run Newton solves on the same system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.devices.base import EvalOutputs
from repro.errors import SingularMatrixError
from repro.instrument.events import (
    NEWTON_SOLVE,
    OUTCOME_NEWTON_FAIL,
    PHASE_ASSEMBLY,
    PHASE_BACKSOLVE,
    PHASE_DEVICE_EVAL,
    PHASE_FACTOR,
)
from repro.instrument.recorder import get_recorder
from repro.linalg.solve import LinearSolver
from repro.mna.system import MnaSystem
from repro.utils.options import SimOptions

#: Marginal cost of evaluating one extra ensemble variant, as a fraction
#: of a full device evaluation. Vectorised banks amortise the Python
#: dispatch and index gathers across variants; only the raw numpy
#: arithmetic scales with K.
ENSEMBLE_EVAL_MARGIN = 0.25


@dataclass
class NewtonResult:
    """Outcome of one Newton solve (scalar or lockstep ensemble).

    On an ensemble *x*, *q* and *qdot* are ``(n, K)``, *converged* means
    every variant met the criterion, *residual_norm* is the worst
    variant's and the ``lu_*`` counters sum over variants.

    Attributes:
        x: final iterate (meaningful even when unconverged — speculative
            WavePipe phases resume from it).
        converged: True if the SPICE delta-x criterion was met.
        iterations: Newton iterations performed.
        residual_norm: infinity norm of F at the final iterate.
        work_units: cost-model charge for this solve.
        q / qdot: charge vector at the solution and its derivative
            ``alpha0*q + beta`` (filled by the caller's integration layer
            when needed).
        failure: short reason string when not converged.
        lu_factors / lu_solves / lu_reuse_hits: linear solver cost
            breakdown for this solve (factorisations, back-solves, and
            back-solves against reused factors).
        bypass_fallbacks: times the Jacobian bypass was abandoned
            mid-solve (residual stall or singular stale factors).
    """

    x: np.ndarray
    converged: bool
    iterations: int
    residual_norm: float
    work_units: float
    q: np.ndarray | None = None
    qdot: np.ndarray | None = None
    failure: str = ""
    lu_factors: int = 0
    lu_solves: int = 0
    lu_reuse_hits: int = 0
    bypass_fallbacks: int = 0


def iteration_work(system: MnaSystem, bypassed: bool = False) -> float:
    """Cost-model work units for one Newton iteration on *system*.

    Device evaluation dominates in a SPICE engine; factorisation scales
    with the pattern's nonzero count. The constants only matter up to an
    overall scale since speedups are cost ratios on the same system.
    A *bypassed* iteration skips assembly and factorisation and pays only
    the back-solve, modelled at a fifth of the factorisation weight.
    """
    lu = 0.01 if bypassed else 0.05
    return system.work_units_per_eval + lu * system.pattern.nnz


def eval_factor(system: MnaSystem) -> float:
    """Device-evaluation cost of *system* relative to one scalar eval.

    K variants share one vectorised evaluation, charged at the marginal
    rate per extra variant; 1 on the scalar path and at K=1.
    """
    if system.sims is None:
        return 1.0
    return 1.0 + ENSEMBLE_EVAL_MARGIN * (system.sims - 1)


def factor_key(system: MnaSystem, alpha0: float, reuse: bool):
    """The key one Newton solve tags its factors with (None: never reuse).

    Factors carry across iterations and solves under the same pattern
    (by identity), alpha0 and gshunt (gmin stepping mutates it): with
    *reuse* on as the approximate Jacobian bypass, and always on a linear
    system, whose Jacobian is its static stamps alone, so that any match
    there is the exact operator. Every solver lives across solves (one
    per engine lane), so the rule prices sequential and pipelined solves
    alike.
    """
    if reuse or not system.has_nonlinear:
        return (system.pattern, alpha0, system.gshunt)
    return None


def newton_solve(
    system: MnaSystem,
    t: float,
    alpha0: float,
    beta: np.ndarray | float,
    x0: np.ndarray,
    options: SimOptions | None = None,
    out: EvalOutputs | None = None,
    solver: LinearSolver | None = None,
    iter_cap: int | None = None,
) -> NewtonResult:
    """Solve the discretised equations at time *t* starting from *x0*.

    Args:
        alpha0: leading integration coefficient (0 for DC).
        beta: history vector of the integration scheme (0 for DC).
        iter_cap: optional hard iteration bound; when hit, returns the
            current iterate with ``converged=False`` and no error — used
            by WavePipe's speculative forward phase.
    """
    return instrumented_solve(
        _newton_iterate, system, t, alpha0, beta, x0, options, out, solver, iter_cap
    )


def instrumented_solve(
    iterate, system, t, alpha0, beta, x0, options, out, solver, iter_cap
) -> NewtonResult:
    """Run the Newton kernel *iterate* under the run's recorder.

    The one wrapper both kernels share: with tracing off it is a plain
    call; with tracing on it brackets the solve in a ``newton_solve``
    span, books the ``newton.*`` / ``lu.*`` counters and synthesizes the
    phase child spans. An ensemble system additionally tags the span
    with ``sims`` and books the ``ensemble.*`` counters.
    """
    opts = options or system.options
    rec = opts.instrument if opts.instrument is not None else get_recorder()
    if not rec.enabled:
        return iterate(system, t, alpha0, beta, x0, opts, out, solver, iter_cap)
    sims = system.sims
    tags = {} if sims is None else {"sims": sims}
    sid = rec.begin_span(NEWTON_SOLVE, t_sim=t, **tags)
    t_start = rec.clock()  # after begin_span so phase children nest inside
    result = iterate(system, t, alpha0, beta, x0, opts, out, solver, iter_cap)
    rec.count("newton.solves")
    rec.count("newton.iterations", result.iterations)
    if sims is not None:
        rec.count("ensemble.solves")
        rec.count("ensemble.variants_per_solve", sims)
    if not result.converged:
        rec.count("newton.failures")
    if result.lu_factors:
        rec.count("lu.factor", result.lu_factors)
    if result.lu_solves:
        rec.count("lu.solve", result.lu_solves)
    if result.lu_reuse_hits:
        rec.count("lu.reuse_hit", result.lu_reuse_hits)
    if result.bypass_fallbacks:
        rec.count("newton.bypass_fallback", result.bypass_fallbacks)
    rec.observe("newton.iterations_per_solve", result.iterations)
    _emit_phase_spans(rec, sid, t_start, system, result)
    rec.end_span(
        sid,
        outcome="converged" if result.converged else OUTCOME_NEWTON_FAIL,
        cost=result.work_units,
        iterations=result.iterations,
        converged=result.converged,
        work_units=result.work_units,
        failure=result.failure,
    )
    return result


def _emit_phase_spans(rec, parent: int, t_start: float, system, result) -> None:
    """Child spans splitting one solve's cost into its four phases.

    The split is synthesized from the virtual-clock work model rather
    than timed (the hot loop stays instrumentation-free): each phase's
    ``cost`` attr is deterministic work units, while its wall interval
    is the parent's window divided proportionally — a drawing aid for
    Perfetto, not a measurement. ``device_eval`` additionally carries
    the per-device-class attribution from the compiled circuit's banks;
    on an ensemble both reflect the shared vectorised pass
    (:func:`eval_factor`).
    """
    nnz = system.pattern.nnz
    shared = eval_factor(system)
    eval_cost = result.iterations * system.work_units_per_eval * shared
    assembly_cost = 0.02 * nnz * result.lu_factors
    factor_cost = 0.02 * nnz * result.lu_factors
    backsolve_cost = 0.01 * nnz * result.lu_solves
    phases = [
        (PHASE_DEVICE_EVAL, eval_cost),
        (PHASE_ASSEMBLY, assembly_cost),
        (PHASE_FACTOR, factor_cost),
        (PHASE_BACKSOLVE, backsolve_cost),
    ]
    total = sum(cost for _, cost in phases)
    if total <= 0.0:
        return
    window = max(rec.clock() - t_start, 0.0)
    cursor = t_start
    for name, cost in phases:
        if cost <= 0.0:
            continue
        dur = window * (cost / total)
        extra = {}
        if name == PHASE_DEVICE_EVAL:
            extra["classes"] = {
                cls: result.iterations * units * shared
                for cls, units in system.compiled.eval_cost_by_class().items()
            }
        rec.emit_span(
            name, ts=cursor, dur=dur, parent=parent, cost=cost, **extra
        )
        cursor += dur


def _newton_iterate(
    system: MnaSystem,
    t: float,
    alpha0: float,
    beta,
    x0: np.ndarray,
    opts: SimOptions,
    out: EvalOutputs | None,
    solver: LinearSolver | None,
    iter_cap: int | None,
) -> NewtonResult:
    """The damped-Newton loop itself (instrumentation-free hot path)."""
    out = out if out is not None else system.make_buffers()
    solver = solver or LinearSolver(system.unknown_names, system.pattern)
    max_iters = iter_cap if iter_cap is not None else opts.max_newton_iters
    per_iter = iteration_work(system)
    per_iter_bypassed = iteration_work(system, bypassed=True)

    # Exact factors need no stall guard or cap: those protect stale ones.
    exact = not system.has_nonlinear
    key = factor_key(system, alpha0, opts.jacobian_reuse)
    f0 = solver.factor_count
    s0 = solver.solve_count
    rh0 = solver.reuse_hits
    fallbacks = 0
    work = 0.0
    prev_norm = np.inf
    # A stall means the stale factors are a bad model of the current
    # operating point; later iterations of the same solve would stall
    # again, so bypass stays off until the next solve.
    allow_bypass = True

    def finish(converged: bool, iterations: int, norm: float, failure: str = ""):
        return NewtonResult(
            x, converged, iterations, norm, work,
            failure=failure,
            lu_factors=solver.factor_count - f0,
            lu_solves=solver.solve_count - s0,
            lu_reuse_hits=solver.reuse_hits - rh0,
            bypass_fallbacks=fallbacks,
        )

    n = system.n
    abs_tol = system.convergence_tolerances(opts)
    charge_term = alpha0 != 0.0 or np.ndim(beta) > 0
    # Global damping applies to nonlinear systems only: a purely linear
    # one converges in one exact step, and damping it only turns one
    # iteration into several.
    voltage_limit = (
        opts.voltage_limit if system.has_nonlinear and system.has_voltages else 0.0
    )
    damping = opts.damping if system.has_nonlinear else 1.0
    voltage_rows = system.voltage_rows
    x_new_full, x_full = out.pads
    x = np.asarray(x0, dtype=float).copy()
    residual_norm = np.inf
    # The convergence test's two scratch vectors: bound and step size.
    bound = np.empty(n)
    step = np.empty(n)

    for iteration in range(1, max_iters + 1):
        system.eval(x, t, out)
        residual = system.resistive_residual(out, x)
        if charge_term:
            residual = residual + alpha0 * out.q[:n] + beta
        residual_norm = float(np.abs(residual).max()) if n else 0.0
        # Large-but-finite residuals are recoverable (overflow-safe device
        # models plus limiting pull the iterate back); only non-finite
        # values are hopeless.
        if not math.isfinite(residual_norm):
            work += per_iter
            return finish(False, iteration, residual_norm,
                          failure="residual diverged (non-finite)")

        # Jacobian bypass: back-solve against the previous factors while
        # they match this operator — always when they are exact, else
        # while the residual keeps contracting.
        bypass = allow_bypass and solver.matches(key)
        if bypass and not exact:
            if opts.refactor_every > 0 and solver.bypass_streak >= opts.refactor_every:
                bypass = False
            elif residual_norm > opts.reuse_stall_ratio * prev_norm:
                # Stale factors stopped paying for themselves: refactor now.
                bypass = False
                allow_bypass = False
                fallbacks += 1
        prev_norm = residual_norm

        work += per_iter_bypassed if bypass else per_iter
        try:
            if bypass:
                try:
                    delta = solver.solve_reused(-residual)
                    solver.bypass_streak += 1
                except SingularMatrixError:
                    fallbacks += 1
                    work += per_iter - per_iter_bypassed
                    bypass = False
                    allow_bypass = False
            if not bypass:
                jac = system.jacobian(out, alpha0)
                solver.factor(jac, key=key)
                delta = solver.resolve(-residual)
        except SingularMatrixError as exc:
            return finish(False, iteration, residual_norm,
                          failure=f"singular Jacobian: {exc}")

        # Global damping: cap the largest voltage move per iteration.
        if voltage_limit > 0:
            vmax = np.abs(delta[voltage_rows]).max()
            if vmax > voltage_limit:
                delta = delta * (voltage_limit / vmax)
        if damping < 1.0:
            delta = delta * damping

        x_new = x + delta

        # Per-device junction limiting on the padded iterate.
        limited = False
        if system.has_limiter:
            x_new_full[:n] = x_new
            x_full[:n] = x
            limited = system.limit(x_new_full, x_full)
            if limited:
                x_new = x_new_full[:n].copy()

        # |x_new - x| <= reltol * max(|x_new|, |x|) + abs_tol, in place.
        np.maximum(np.abs(x_new, out=bound), np.abs(x, out=step), out=bound)
        bound *= opts.reltol
        bound += abs_tol
        np.abs(np.subtract(x_new, x, out=step), out=step)
        small = (step <= bound).all()
        x = x_new
        if small and not limited:
            return finish(True, iteration, residual_norm)

    failure = "" if iter_cap is not None else "iteration limit reached"
    return finish(False, max_iters, residual_norm, failure=failure)
