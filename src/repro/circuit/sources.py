"""Independent-source waveforms.

Each waveform knows its value at any time (:meth:`SourceWaveform.value`),
can evaluate itself on a numpy vector of times (:meth:`values`), and
reports its *breakpoints* — times at which it is non-smooth and the
transient engine must place a time point and restart step-size control.
Breakpoint handling is what lets LTE-controlled integration step over
PULSE/PWL corners without either missing the edge or grinding along at a
tiny step "just in case".

The shapes and parameter names mirror SPICE: DC, PULSE, SIN, PWL, EXP.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import CircuitError


class SourceWaveform:
    """Base class for time-dependent source descriptions."""

    def value(self, t: float) -> float:
        """Source value at time *t* (seconds)."""
        raise NotImplementedError

    def values(self, times: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`value`; subclasses override when profitable."""
        return np.array([self.value(float(t)) for t in np.asarray(times)])

    def breakpoints(self, tstop: float) -> list[float]:
        """Times in ``[0, tstop]`` where the waveform has a corner."""
        return []

    @property
    def dc(self) -> float:
        """Value used for the DC operating point (t = 0)."""
        return self.value(0.0)


@dataclass(frozen=True)
class Dc(SourceWaveform):
    """Constant source."""

    level: float = 0.0

    def value(self, t: float) -> float:
        return self.level

    def values(self, times: np.ndarray) -> np.ndarray:
        return np.full(np.shape(times), self.level)


@dataclass(frozen=True)
class Pulse(SourceWaveform):
    """SPICE PULSE(v1 v2 td tr tf pw per) waveform.

    Rises from *v1* to *v2* starting at *td* over *tr*, holds for *pw*,
    falls over *tf*, and repeats with period *per* (0 or None = one-shot).
    """

    v1: float
    v2: float
    delay: float = 0.0
    rise: float = 1e-12
    fall: float = 1e-12
    width: float = 1e-9
    period: float | None = None

    def __post_init__(self):
        if self.rise < 0 or self.fall < 0 or self.width < 0:
            raise CircuitError("PULSE rise/fall/width must be non-negative")
        if self.period is not None and self.period <= 0:
            raise CircuitError("PULSE period must be positive (or None)")
        min_period = self.rise + self.fall + self.width
        if self.period is not None and self.period < min_period:
            raise CircuitError(
                f"PULSE period {self.period} shorter than rise+width+fall {min_period}"
            )

    def value(self, t: float) -> float:
        if t < self.delay:
            return self.v1
        local = t - self.delay
        if self.period:
            local = local % self.period
        if local < self.rise:
            if self.rise == 0:
                return self.v2
            return self.v1 + (self.v2 - self.v1) * local / self.rise
        local -= self.rise
        if local < self.width:
            return self.v2
        local -= self.width
        if local < self.fall:
            if self.fall == 0:
                return self.v1
            return self.v2 + (self.v1 - self.v2) * local / self.fall
        return self.v1

    def breakpoints(self, tstop: float) -> list[float]:
        corners = [0.0, self.rise, self.rise + self.width, self.rise + self.width + self.fall]
        points: list[float] = []
        cycle = 0
        while True:
            base = self.delay + (cycle * self.period if self.period else 0.0)
            if base > tstop:
                break
            points.extend(base + c for c in corners if base + c <= tstop)
            if not self.period:
                break
            cycle += 1
        return points


@dataclass(frozen=True)
class Sin(SourceWaveform):
    """SPICE SIN(vo va freq td theta) waveform.

    ``vo + va * sin(2*pi*freq*(t - td))`` for t >= td, with optional
    exponential damping ``theta`` (1/s); constant *vo* before *td*.
    """

    offset: float
    amplitude: float
    freq: float
    delay: float = 0.0
    theta: float = 0.0

    def __post_init__(self):
        if self.freq <= 0:
            raise CircuitError("SIN frequency must be positive")

    def value(self, t: float) -> float:
        if t < self.delay:
            return self.offset
        phase = 2.0 * math.pi * self.freq * (t - self.delay)
        damp = math.exp(-self.theta * (t - self.delay)) if self.theta else 1.0
        return self.offset + self.amplitude * damp * math.sin(phase)

    def values(self, times: np.ndarray) -> np.ndarray:
        times = np.asarray(times, dtype=float)
        local = times - self.delay
        active = local >= 0
        phase = 2.0 * np.pi * self.freq * local
        damp = np.exp(-self.theta * local) if self.theta else 1.0
        wave = self.offset + self.amplitude * damp * np.sin(phase)
        return np.where(active, wave, self.offset)

    def breakpoints(self, tstop: float) -> list[float]:
        # Smooth except at turn-on.
        return [self.delay] if 0.0 < self.delay <= tstop else []


@dataclass(frozen=True)
class Pwl(SourceWaveform):
    """Piecewise-linear waveform from (time, value) pairs.

    Holds the first value before the first time and the last value after
    the last time. Times must be strictly increasing.
    """

    points: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if len(self.points) < 1:
            raise CircuitError("PWL needs at least one (time, value) point")
        times = [p[0] for p in self.points]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise CircuitError("PWL times must be strictly increasing")

    def value(self, t: float) -> float:
        pts = self.points
        if t <= pts[0][0]:
            return pts[0][1]
        if t >= pts[-1][0]:
            return pts[-1][1]
        # Binary search for the surrounding segment.
        lo, hi = 0, len(pts) - 1
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if pts[mid][0] <= t:
                lo = mid
            else:
                hi = mid
        t0, v0 = pts[lo]
        t1, v1 = pts[hi]
        return v0 + (v1 - v0) * (t - t0) / (t1 - t0)

    def breakpoints(self, tstop: float) -> list[float]:
        return [t for t, _ in self.points if 0.0 <= t <= tstop]


@dataclass(frozen=True)
class Exp(SourceWaveform):
    """SPICE EXP(v1 v2 td1 tau1 td2 tau2) waveform.

    Exponential rise from *v1* toward *v2* starting at *td1* with time
    constant *tau1*, then exponential decay back toward *v1* starting at
    *td2* with time constant *tau2*.
    """

    v1: float
    v2: float
    td1: float = 0.0
    tau1: float = 1e-9
    td2: float = 1e-9
    tau2: float = 1e-9

    def __post_init__(self):
        if self.tau1 <= 0 or self.tau2 <= 0:
            raise CircuitError("EXP time constants must be positive")
        if self.td2 < self.td1:
            raise CircuitError("EXP requires td2 >= td1")

    def value(self, t: float) -> float:
        v = self.v1
        if t >= self.td1:
            v += (self.v2 - self.v1) * (1.0 - math.exp(-(t - self.td1) / self.tau1))
        if t >= self.td2:
            v += (self.v1 - self.v2) * (1.0 - math.exp(-(t - self.td2) / self.tau2))
        return v

    def breakpoints(self, tstop: float) -> list[float]:
        return [t for t in (self.td1, self.td2) if 0.0 <= t <= tstop]


class SampledWaveform(SourceWaveform):
    """Waveform defined by dense samples (linear interpolation, no corners).

    Replays simulation output as a source: unlike :class:`Pwl` it
    deliberately reports **no breakpoints**, because its thousands of
    sample points are smooth simulation output, not source corners the
    step controller must land on. The WTM coordinator's partition-boundary
    sources subclass it (:class:`repro.partition.boundary.BoundarySource`)
    and report only the sharp corners.
    """

    def __init__(self, times, values):
        times = np.asarray(times, dtype=float)
        values = np.asarray(values, dtype=float)
        if times.ndim != 1 or times.shape != values.shape or times.size == 0:
            raise CircuitError("sampled waveform needs matching non-empty 1-D arrays")
        if times.size >= 2 and np.any(np.diff(times) <= 0):
            raise CircuitError("sampled waveform times must strictly increase")
        self.times = times
        self.sample_values = values

    def value(self, t: float) -> float:
        return float(np.interp(t, self.times, self.sample_values))

    def values(self, times: np.ndarray) -> np.ndarray:
        return np.interp(times, self.times, self.sample_values)

    def __repr__(self) -> str:
        return f"SampledWaveform({self.times.size} samples)"


def as_waveform(value) -> SourceWaveform:
    """Coerce *value* into a :class:`SourceWaveform`.

    Numbers become :class:`Dc`; waveforms pass through unchanged.
    """
    if isinstance(value, SourceWaveform):
        return value
    if isinstance(value, (int, float)):
        return Dc(float(value))
    raise CircuitError(f"cannot interpret {value!r} as a source waveform")
