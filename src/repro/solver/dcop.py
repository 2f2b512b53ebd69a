"""DC operating point with homotopy fallbacks.

Strategy (mirrors ngspice):

1. Plain Newton from a zero (or caller-supplied) initial guess.
2. **gmin stepping** — solve a sequence of problems with a large diagonal
   conductance that is reduced geometrically to the target gmin; each
   solution seeds the next.
3. **Source stepping** — ramp all independent sources from 0 to full value
   in ``options.source_steps`` increments, continuing from each solution.

The operating point also initialises transient simulation: at DC the
charge derivative is exactly zero, so the integration history can start
with ``qdot = 0`` without approximation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConvergenceError
from repro.linalg.solve import LinearSolver
from repro.mna.system import MnaSystem
from repro.solver.newton import NewtonResult, newton_solve
from repro.utils.options import SimOptions


@dataclass
class OperatingPoint:
    """Converged DC solution plus bookkeeping for the cost model."""

    x: np.ndarray
    q: np.ndarray
    iterations: int
    work_units: float
    strategy: str
    lu_factors: int = 0
    lu_solves: int = 0
    lu_reuse_hits: int = 0


def solve_operating_point(
    system: MnaSystem,
    options: SimOptions | None = None,
    x0: np.ndarray | None = None,
) -> OperatingPoint:
    """Find the DC operating point, trying homotopies before giving up.

    Raises:
        ConvergenceError: when direct Newton, gmin stepping and source
            stepping all fail.
    """
    opts = options or system.options
    guess = np.zeros(system.n) if x0 is None else np.asarray(x0, dtype=float).copy()
    solver = LinearSolver(system.unknown_names, system.pattern)
    total_work = 0.0
    total_iters = 0

    def finish(x: np.ndarray, strategy: str) -> OperatingPoint:
        # The solver is local to this call, so its lifetime counters are
        # exactly this operating point's linear-solve cost.
        return OperatingPoint(
            x,
            system.charge_at(x),
            total_iters,
            total_work,
            strategy,
            lu_factors=solver.factor_count,
            lu_solves=solver.solve_count,
            lu_reuse_hits=solver.reuse_hits,
        )

    result = newton_solve(system, 0.0, 0.0, 0.0, guess, opts, solver=solver)
    total_work += result.work_units
    total_iters += result.iterations
    if result.converged:
        return finish(result.x, "newton")

    gmin_result = _gmin_stepping(system, opts, guess, solver)
    if gmin_result is not None:
        res, work, iters = gmin_result
        total_work += work
        total_iters += iters
        return finish(res.x, "gmin-stepping")

    src_result = _source_stepping(system, opts, guess, solver)
    if src_result is not None:
        res, work, iters = src_result
        total_work += work
        total_iters += iters
        return finish(res.x, "source-stepping")

    raise ConvergenceError(
        "DC operating point failed (newton, gmin stepping and source stepping)",
        iterations=total_iters,
        residual_norm=result.residual_norm,
    )


def _gmin_stepping(system, opts, guess, solver):
    """Geometric gmin ramp from 1e-2 S down to the target gmin."""
    x = guess.copy()
    work = 0.0
    iters = 0
    original = system.gshunt
    try:
        schedule = np.geomspace(1e-2, original, max(opts.gmin_steps, 2))
        result: NewtonResult | None = None
        for g in schedule:
            system.gshunt = float(g)
            result = newton_solve(system, 0.0, 0.0, 0.0, x, opts, solver=solver)
            work += result.work_units
            iters += result.iterations
            if not result.converged:
                return None
            x = result.x
        return result, work, iters
    finally:
        system.gshunt = original


def _source_stepping(system, opts, guess, solver):
    """Ramp independent sources 0 -> 1; requires source banks to exist."""
    banks = [
        b
        for b in (system.compiled.vsource_bank, system.compiled.isource_bank)
        if b is not None
    ]
    if not banks:
        return None
    x = guess.copy()
    work = 0.0
    iters = 0
    try:
        result: NewtonResult | None = None
        for scale in np.linspace(0.1, 1.0, max(opts.source_steps, 2)):
            for bank in banks:
                bank.scale = float(scale)
            result = newton_solve(system, 0.0, 0.0, 0.0, x, opts, solver=solver)
            work += result.work_units
            iters += result.iterations
            if not result.converged:
                return None
            x = result.x
        return result, work, iters
    finally:
        for bank in banks:
            bank.scale = 1.0
