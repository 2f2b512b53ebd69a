"""Local truncation error estimation and SPICE-style step control.

LTE is estimated from divided differences of the *solution* over the
newest point cluster (candidate point included), applied to node-voltage
unknowns. Error constants per method (magnitude of the leading local
error term expressed through the divided difference ``dd_{k+1} ~
x^{(k+1)}/(k+1)!``):

    be    : |LTE| = h^2 * |dd2|              (h^2/2 * x'')
    trap  : |LTE| = (1/2) h^3 * |dd3|        (h^3/12 * x''')
    gear2 : |LTE| = (4/3) h^3 * |dd3|        (2/9  h^3 * x''')

Acceptance compares against ``trtol * (lte_reltol*|x| + lte_abstol)``; the
``trtol`` fudge factor (SPICE default 7) acknowledges that the estimate is
itself noisy. The *optimal* step returned by :func:`lte_verdict` is
deliberately **uncapped** — the sequential controller clamps it with the
consecutive-step ratio bound, while WavePipe's backward pipelining uses
the uncapped value to place its leading point.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.integration.history import TimepointHistory, divided_difference
from repro.utils.options import SimOptions

#: |LTE| = ERROR_CONSTANT[method] * h^(k+1) * |dd_(k+1)|
ERROR_CONSTANTS = {"be": 1.0, "trap": 0.5, "gear2": 4.0 / 3.0}

#: Safety factor applied to the LTE-optimal step recommendation.
SAFETY = 0.9

#: Growth factor used when the error estimate is effectively zero.
ZERO_ERROR_GROWTH = 100.0


@dataclass(frozen=True)
class LteVerdict:
    """Outcome of the truncation-error test for one candidate point.

    Attributes:
        accepted: candidate error within tolerance.
        error_ratio: max over unknowns of |LTE| / (trtol * tol); <= 1 means
            accepted. 0.0 when no estimate was possible.
        h_optimal: uncapped step suggestion for the *next* step (or the
            retry, when rejected).
        estimated: False when there were too few points for an estimate
            (the candidate is then accepted by construction).
        ratios: *estimated* ensemble verdicts only — the ``(K,)``
            per-variant error ratios behind the max-reduced *error_ratio*.
    """

    accepted: bool
    error_ratio: float
    h_optimal: float
    estimated: bool
    ratios: np.ndarray | None = field(default=None, compare=False)


def _unknown_error_ratios(
    method_used, order, history, t_new, x_new, voltage_rows, options, h
) -> np.ndarray | None:
    """|LTE| / tolerance per voltage unknown (per variant column, if any).

    Only the *voltage_rows* of each point enter the divided difference,
    scale and tolerance — the same elementwise formulas as over the full
    vector, without computing the rows the test ignores. None when no
    estimate is possible: too few history points (cold start) or no
    voltage unknowns.
    """
    needed = order + 2  # dd of order k+1 needs k+2 points
    newest = history.newest(needed - 1)
    x_v = x_new[voltage_rows]
    if len(newest) < needed - 1 or x_v.size == 0:
        return None
    dd = divided_difference([(t_new, x_v)] + [(p.t, p.x[voltage_rows]) for p in newest])
    err = ERROR_CONSTANTS[method_used] * (h ** (order + 1)) * np.abs(dd)

    scale = np.maximum(np.abs(x_v), np.abs(history.last.x[voltage_rows]))
    tol = options.trtol * (
        options.effective_lte_reltol * scale + options.effective_lte_abstol
    )
    return err / tol


def lte_verdict(
    method_used: str,
    order: int,
    history: TimepointHistory,
    t_new: float,
    x_new: np.ndarray,
    voltage_rows,
    options: SimOptions,
    h_solve: float | None = None,
) -> LteVerdict:
    """Run the truncation-error test on a candidate solution.

    The divided difference spans the candidate plus the newest ``order+1``
    history points. With insufficient history (cold start) the point is
    accepted and a cautious growth suggestion returned.

    Args:
        voltage_rows: the voltage unknowns the test covers — a boolean
            mask or an index (the engine passes
            :attr:`~repro.mna.system.MnaSystem.voltage_rows`).
        h_solve: the integration step the candidate was actually solved
            with, when it differs from ``t_new - history.last.t`` —
            WavePipe's backward points integrate from the stage base while
            being verified against a history that already contains their
            accepted siblings.
    """
    h = h_solve if h_solve is not None else t_new - history.last.t
    per_unknown = _unknown_error_ratios(
        method_used, order, history, t_new, x_new, voltage_rows, options, h
    )
    if per_unknown is None:
        return LteVerdict(True, 0.0, h * options.step_ratio_max, False)

    ratio = float(np.max(per_unknown))
    if ratio <= 0.0:
        return LteVerdict(True, 0.0, h * ZERO_ERROR_GROWTH, True)

    factor = ratio ** (-1.0 / (order + 1))
    h_optimal = h * min(SAFETY * factor, ZERO_ERROR_GROWTH)
    return LteVerdict(ratio <= 1.0, ratio, h_optimal, True)


def ensemble_lte_verdict(
    method_used: str,
    order: int,
    history: TimepointHistory,
    t_new: float,
    x_new: np.ndarray,
    voltage_rows,
    options: SimOptions,
    h_solve: float | None = None,
) -> LteVerdict:
    """Per-variant truncation-error test with a max-reduction accept rule.

    The ensemble shares one time grid, so a candidate point is accepted
    only when **every** variant's error ratio passes (max-reduction over
    the ``(K,)`` per-variant ratios), and the next-step suggestion is the
    most conservative variant's optimum (min-reduction over per-variant
    ``h_optimal``). History and *x_new* carry the trailing variant axis;
    all per-unknown formulas match :func:`lte_verdict` elementwise, so
    K=1 reproduces the scalar verdict bit for bit.

    The combined verdict carries the per-variant error ratios in
    ``ratios`` (None when no estimate was possible).
    """
    h = h_solve if h_solve is not None else t_new - history.last.t
    per_unknown = _unknown_error_ratios(
        method_used, order, history, t_new, x_new, voltage_rows, options, h
    )
    if per_unknown is None:
        return LteVerdict(True, 0.0, h * options.step_ratio_max, False)

    ratios = np.max(per_unknown, axis=0)
    # Per-variant h_optimal in Python floats: C pow and numpy's float64
    # pow can differ in the last ulp, and K=1 must retrace the scalar
    # verdict bit for bit.
    h_opts = np.empty(ratios.shape[0])
    for k in range(ratios.shape[0]):
        ratio_k = float(ratios[k])
        if ratio_k <= 0.0:
            h_opts[k] = h * ZERO_ERROR_GROWTH
        else:
            factor = ratio_k ** (-1.0 / (order + 1))
            h_opts[k] = h * min(SAFETY * factor, ZERO_ERROR_GROWTH)
    worst = float(ratios.max())
    if worst <= 0.0:
        return LteVerdict(True, 0.0, h * ZERO_ERROR_GROWTH, True, ratios=ratios)
    return LteVerdict(worst <= 1.0, worst, float(h_opts.min()), True, ratios=ratios)


def predicted_max_step(
    method_used: str,
    order: int,
    history: TimepointHistory,
    voltage_rows,
    options: SimOptions,
) -> float | None:
    """A-priori LTE-optimal step predicted from history alone.

    Uses the divided difference over the newest ``order+2`` accepted points
    (no candidate) as a frozen estimate of the solution's (k+1)-th
    derivative, and inverts the LTE formula for the step that would just
    meet tolerance. This is the quantity WavePipe's backward pipelining
    uses to decide how far ahead its leading point may reach; every point
    is still verified a posteriori with :func:`lte_verdict`.

    Returns None when history is too short for an estimate.
    """
    needed = order + 2
    if history.era_length < needed:
        return None
    points = [(p.t, p.x[voltage_rows]) for p in history.newest(needed)]
    if points[0][1].size == 0:
        return None
    dd = divided_difference(points)

    scale = np.abs(history.last.x[voltage_rows])
    tol = options.trtol * (
        options.effective_lte_reltol * scale + options.effective_lte_abstol
    )
    err_per_h = ERROR_CONSTANTS[method_used] * np.abs(dd)
    # Step h such that max(err_per_h * h^(k+1) / tol) == 1.
    worst = float(np.max(err_per_h / tol))
    if worst <= 0.0:
        h_ref = history.last_step or 0.0
        return h_ref * ZERO_ERROR_GROWTH if h_ref else None
    return SAFETY * worst ** (-1.0 / (order + 1))
