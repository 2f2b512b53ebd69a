"""Boundary waveform exchange: the data plane of the WTM coordinator.

Each outer iteration, every partition publishes its owned boundary-node
voltages as sampled waveforms on the coordinator's common time grid, and
every consumer injects its neighbours' last published iterate through
ideal voltage sources (``VWTM#<node>``) carrying a
:class:`~repro.circuit.sources.SampledWaveform`. The exchange is
voltage-mode: the owner's node waveform *is* the interface quantity, and
the consumer's drawn current is implicitly returned on the next sweep
through the owner's own solve (its copy of the cut component sees the
consumer-side waveform).

:class:`BoundaryWaveform` is the value object: immutable samples on a
strictly increasing grid with linear interpolation between knots —
exactly the interpolation the injected source applies, so what a
partition samples is what its neighbour replays (the replay property the
hypothesis suite pins down).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.circuit.circuit import Circuit, canonical_node
from repro.circuit.sources import SampledWaveform
from repro.errors import SimulationError


@dataclass(frozen=True)
class BoundaryWaveform:
    """One boundary node's sampled voltage iterate."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        if times.ndim != 1 or times.size < 2:
            raise SimulationError("boundary waveform needs >= 2 samples")
        if times.shape != values.shape:
            raise SimulationError("boundary times/values length mismatch")
        if np.any(np.diff(times) <= 0):
            raise SimulationError("boundary sample times must strictly increase")

    def at(self, t) -> np.ndarray:
        """Linear interpolation, clamped to the end samples."""
        return np.interp(t, self.times, self.values)

    def as_source(self) -> SampledWaveform:
        """The injectable source replaying this iterate (corner-aware)."""
        return BoundarySource(self.times, self.values)


#: Fraction of the full-scale slope change (swing per mean sample
#: spacing) above which a sample knot counts as a corner the block
#: solver's step controller must land on.
CORNER_THRESHOLD = 0.05


class BoundarySource(SampledWaveform):
    """Sampled boundary iterate that reports its sharp corners.

    A plain :class:`SampledWaveform` deliberately reports no breakpoints
    — its knots are smooth simulation output. A *boundary* iterate is
    different: when the neighbour partition carries a switching edge, the
    replayed waveform has real corners, and a consumer whose step
    controller never lands on them re-discretises the edge differently
    on every outer iteration. That solve-to-solve placement jitter shows
    up as a floor in the WTM residual far above the true fixed-point
    contraction. Reporting knots where the piecewise-linear slope changes
    by more than :data:`CORNER_THRESHOLD` of full scale pins the edges —
    exactly the treatment the monolithic engine gives a ``Pulse`` — while
    smooth stretches still contribute no breakpoints.
    """

    def breakpoints(self, tstop: float) -> list[float]:
        times, values = self.times, self.sample_values
        if times.size < 3:
            return []
        slopes = np.diff(values) / np.diff(times)
        swing = float(values.max() - values.min())
        if swing <= 0.0:
            return []
        full_scale = swing / float(np.mean(np.diff(times)))
        corners = np.nonzero(np.abs(np.diff(slopes)) > CORNER_THRESHOLD * full_scale)[0]
        return [float(t) for t in times[corners + 1] if 0.0 < t < tstop]


#: Name prefix of the injected boundary voltage sources, so traces and
#: subcircuit listings show which sources the coordinator built.
BOUNDARY_SOURCE_PREFIX = "VWTM#"


def build_partition_circuit(
    circuit: Circuit,
    manifest,
    index: int,
    boundary: dict[str, BoundaryWaveform],
) -> Circuit:
    """Partition *index*'s subproblem with frozen neighbour waveforms.

    Keeps every component touching the partition's nodes (cut components
    are deliberately duplicated into each side so both see the coupling
    against the neighbour's iterate) and drives each foreign boundary
    node with a ``VWTM#`` source replaying *boundary*'s entry for it.
    """
    spec = manifest.partitions[index]
    owned = set(spec.nodes)
    sub = Circuit(f"{circuit.title}#wtm{index}")
    foreign: list[str] = []
    for comp in circuit.components:
        nodes = {canonical_node(n) for n in comp.nodes} - {"0"}
        if not nodes & owned:
            continue
        sub.add(comp)
        for node in sorted(nodes - owned):
            if node not in foreign:
                foreign.append(node)
    for node in sorted(foreign):
        try:
            wave = boundary[node]
        except KeyError:
            raise SimulationError(
                f"partition {index} needs a boundary waveform for {node!r}"
            ) from None
        sub.add_vsource(
            f"{BOUNDARY_SOURCE_PREFIX}{node}", node, "0", wave.as_source()
        )
    return sub
