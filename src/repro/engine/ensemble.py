"""Ensemble transient engine: K parameter variants per solve.

:func:`run_ensemble_transient` is the ensemble-specific shell around the
one engine, :class:`~repro.engine.transient.TransientEngine`: it batches
the variants into an :class:`~repro.mna.ensemble.EnsembleSystem`, hands
the engine a ``start`` callable that stacks per-variant DC operating
points into the ``(n, K)`` starting state, and splits the accepted
``(points, n, K)`` block back into K results. The shared grid, the
lockstep Newton solve per candidate point and the max-reduction LTE
accept rule all follow from the engine picking the ensemble kernel for a
system with a ``sims`` axis (:func:`~repro.engine.transient.kernel_for`).

DC operating points stay on the scalar path — homotopy fallbacks mutate
per-variant bank state. Because the engine, its loop and its one-wide
stage *are* the sequential ones, a K=1 ensemble retraces the sequential
run bit for bit, with factorisation reuse on or off.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.circuit.circuit import Circuit
from repro.engine.transient import (
    TransientEngine,
    TransientResult,
    TransientStats,
    _initial_solution,
)
from repro.mna.compiler import CompiledCircuit
from repro.mna.ensemble import (
    EnsembleCompilation,
    compile_ensemble,
    ensemble_from_compiled,
)
from repro.mna.system import MnaSystem
from repro.utils.options import SimOptions
from repro.waveform.waveform import WaveformSet


@dataclass
class EnsembleTransientResult:
    """Per-variant transient results sharing one adaptive time grid.

    ``variants[k]`` is an ordinary
    :class:`~repro.engine.transient.TransientResult` whose waveforms are
    variant *k*'s columns of the lockstep solve; ``stats`` describes the
    *shared* run (one Newton history, one grid), which all variants
    reference.
    """

    variants: list[TransientResult]
    stats: TransientStats
    times: np.ndarray
    step_sizes: np.ndarray
    options: SimOptions

    @property
    def sims(self) -> int:
        return len(self.variants)

    @property
    def final_time(self) -> float:
        return float(self.times[-1])

    def __getitem__(self, k: int) -> TransientResult:
        return self.variants[k]

    def __len__(self) -> int:
        return len(self.variants)


def run_ensemble_transient(
    circuits: list[Circuit] | list[CompiledCircuit] | EnsembleCompilation,
    tstop: float,
    tstep: float | None = None,
    options: SimOptions | None = None,
    uic: bool = False,
    node_ics: dict[str, float] | None = None,
    instrument=None,
) -> EnsembleTransientResult:
    """Transient-simulate K same-topology variants in lockstep, 0 to *tstop*.

    Args:
        circuits: K circuit variants (raw or compiled) sharing one
            topology, or an already-built
            :class:`~repro.mna.ensemble.EnsembleCompilation`.
        tstep: suggested output/initial step, as in
            :func:`~repro.engine.transient.run_transient`.
        uic: skip the operating points and start from initial conditions.
        node_ics: extra initial node voltages for ``uic`` runs (applied to
            every variant).
        instrument: optional :class:`~repro.instrument.Recorder`.

    Raises:
        SimulationError: when the variants' topologies differ or a bank
            type does not support ensemble evaluation.
    """
    if isinstance(circuits, EnsembleCompilation):
        ensemble = circuits
    elif circuits and isinstance(circuits[0], Circuit):
        ensemble = compile_ensemble(list(circuits), options)
    else:
        ensemble = ensemble_from_compiled(list(circuits))
    options = options or ensemble.variants[0].options
    if instrument is not None:
        options = options.replace(instrument=instrument)
    system = ensemble.system

    def start(stats: TransientStats) -> tuple[np.ndarray, np.ndarray]:
        # One scalar system per variant: DC homotopy fallbacks mutate bank
        # state (gshunt schedule, source scale), which the ensemble banks
        # must not see.
        states = [
            _initial_solution(MnaSystem(compiled), options, uic, node_ics, stats)
            for compiled in ensemble.variants
        ]
        x0s, q0s = zip(*states)
        return np.stack(x0s, axis=1), np.stack(q0s, axis=1)

    engine = TransientEngine(system, start, tstop, tstep, options, scheme="ensemble")
    shared = engine.run()
    block = np.stack(engine.solutions, axis=0)  # (points, n, K)
    variants = [
        replace(
            shared,
            waveforms=WaveformSet(
                shared.times,
                {
                    name: np.ascontiguousarray(block[:, i, k])
                    for i, name in enumerate(system.unknown_names)
                },
            ),
        )
        for k in range(system.sims)
    ]
    return EnsembleTransientResult(
        variants=variants,
        stats=shared.stats,
        times=shared.times,
        step_sizes=shared.step_sizes,
        options=options,
    )
