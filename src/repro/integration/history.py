"""Accepted-timepoint history: divided differences and the predictor.

The history is the shared substrate of sequential step control *and* both
WavePipe schemes:

* Integration coefficients need the last one or two accepted points.
* LTE estimation needs divided differences over the most recent cluster.
* The polynomial predictor extrapolates the next solution — Newton's
  initial guess sequentially, and the *speculative history* for forward
  pipelining.

Histories are cheap to snapshot (:meth:`TimepointHistory.clone`): WavePipe
tasks each receive an immutable view of the accepted prefix so concurrent
solves cannot race on it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import SimulationError


@dataclass(frozen=True)
class Timepoint:
    """One accepted solution: time, solution, charge, charge derivative."""

    t: float
    x: np.ndarray
    q: np.ndarray
    qdot: np.ndarray


def divided_difference(points: list[tuple[float, np.ndarray]]) -> np.ndarray:
    """k-th divided difference over k+1 (time, vector) points.

    Approximates ``x^(k)(t) / k!`` near the points. Times must be
    pairwise distinct; order is irrelevant mathematically but callers
    pass newest-first by convention.
    """
    if len(points) < 2:
        raise SimulationError("divided difference needs at least 2 points")
    times = [float(t) for t, _ in points]
    # Every level rebinds fresh arrays, so the inputs are never written.
    vals = [np.asarray(v, dtype=float) for _, v in points]
    n = len(points)
    for level in range(1, n):
        for i in range(n - level):
            dt = times[i] - times[i + level]
            if dt == 0.0:
                raise SimulationError("divided difference with coincident times")
            vals[i] = (vals[i] - vals[i + 1]) / dt
    return vals[0]


def neville_extrapolate(points: list[tuple[float, np.ndarray]], t_new: float) -> np.ndarray:
    """Evaluate the interpolating polynomial through *points* at *t_new*."""
    if not points:
        raise SimulationError("extrapolation needs at least one point")
    times = [float(t) for t, _ in points]
    # Every level rebinds fresh arrays, so the inputs are never written;
    # only a one-point "polynomial" needs a copy to stay private.
    vals = [np.asarray(v, dtype=float) for _, v in points]
    n = len(points)
    if n == 1:
        return vals[0].copy()
    for level in range(1, n):
        for i in range(n - level):
            denom = times[i] - times[i + level]
            vals[i] = (
                (t_new - times[i + level]) * vals[i] - (t_new - times[i]) * vals[i + 1]
            ) / denom
    return vals[0]


class TimepointHistory:
    """Bounded list of accepted timepoints, newest last."""

    def __init__(self, maxlen: int = 8):
        if maxlen < 2:
            raise SimulationError("history needs maxlen >= 2")
        self.maxlen = maxlen
        self._points: list[Timepoint] = []
        self._era_start = 0

    def __len__(self) -> int:
        return len(self._points)

    def __getitem__(self, i: int) -> Timepoint:
        return self._points[i]

    @property
    def last(self) -> Timepoint:
        if not self._points:
            raise SimulationError("history is empty")
        return self._points[-1]

    @property
    def times(self) -> list[float]:
        return [p.t for p in self._points]

    @property
    def last_step(self) -> float | None:
        """Gap between the two newest points, None with fewer than 2."""
        if len(self._points) < 2:
            return None
        return self._points[-1].t - self._points[-2].t

    def append(self, point: Timepoint) -> None:
        if self._points and point.t <= self._points[-1].t:
            raise SimulationError(
                f"timepoint {point.t} not after history front {self._points[-1].t}"
            )
        self._points.append(point)
        if len(self._points) > self.maxlen:
            del self._points[0]
            self._era_start = max(0, self._era_start - 1)

    def mark_era(self) -> None:
        """Start a new smoothness era at the newest point.

        Called after landing on a source breakpoint: the solution is
        non-smooth across the corner, so divided differences and
        polynomial predictions must not span it. The breakpoint solution
        itself belongs to the new era (it is a valid state on both sides).
        """
        if self._points:
            self._era_start = len(self._points) - 1

    @property
    def era_length(self) -> int:
        """Number of points in the current smoothness era."""
        return len(self._points) - self._era_start

    def clone(self) -> "TimepointHistory":
        """Shallow snapshot (Timepoints are frozen, arrays never mutated)."""
        copy = TimepointHistory(self.maxlen)
        copy._points = list(self._points)
        copy._era_start = self._era_start
        return copy

    def newest(self, count: int, same_era: bool = True) -> list[Timepoint]:
        """Up to *count* newest points, newest first.

        With *same_era* (default) the window stops at the last breakpoint
        corner — the only points over which divided differences are
        meaningful.
        """
        pool = self._points[self._era_start :] if same_era else self._points
        return list(reversed(pool[-count:]))

    # -- numerical services ---------------------------------------------------

    def solution_divided_difference(
        self, order: int, candidate: tuple[float, np.ndarray] | None = None
    ) -> np.ndarray | None:
        """dd of *order* over the newest points (optionally with a candidate).

        Returns None when not enough points exist yet — callers treat a
        missing estimate as "no information" and stay conservative.
        """
        needed = order + 1
        pts: list[tuple[float, np.ndarray]] = []
        if candidate is not None:
            pts.append(candidate)
        for p in self.newest(needed):
            pts.append((p.t, p.x))
        if len(pts) < needed:
            return None
        return divided_difference(pts[:needed])

    def predict(self, t_new: float, order: int) -> np.ndarray:
        """Extrapolate the solution to *t_new* using up to *order*+1 points.

        Degrades gracefully: with a single (era) history point this is a
        constant prediction, with two a linear one, and so on. The window
        never spans a breakpoint corner.
        """
        count = min(order + 1, self.era_length)
        if count == 0:
            raise SimulationError("cannot predict from an empty history")
        pts = [(p.t, p.x) for p in self.newest(count)]
        return neville_extrapolate(pts, t_new)
