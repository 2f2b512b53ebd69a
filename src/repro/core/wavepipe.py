"""Public WavePipe API.

:func:`run_wavepipe` runs one pipelined transient;
:func:`compare_with_sequential` additionally runs the sequential baseline
on the same compiled circuit and reports the speedup and waveform accuracy
— the two quantities the paper's evaluation tables are made of.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.circuit.circuit import Circuit
from repro.core.backward import BackwardPipeline
from repro.core.combined import CombinedPipeline
from repro.core.forward import ForwardPipeline
from repro.core.pipeline import PipelineResult
from repro.engine.transient import TransientResult, run_transient
from repro.errors import SimulationError
from repro.mna.compiler import CompiledCircuit, compile_circuit
from repro.parallel.executors import StageExecutor, make_executor
from repro.utils.options import SimOptions
from repro.waveform.waveform import Deviation, compare, worst_deviation

#: The stats :meth:`SpeedupReport.metrics_delta` pairs up.
DELTA_FIELDS = (
    "accepted_points",
    "iterations_per_point",
    "reject_rate",
    "newton_failures",
    "work_units",
    "wall_seconds",
    "lu_factors",
    "reuse_hit_rate",
)

#: Scheme name -> engine class.
SCHEMES = {
    "backward": BackwardPipeline,
    "forward": ForwardPipeline,
    "combined": CombinedPipeline,
}


def run_wavepipe(
    circuit: Circuit | CompiledCircuit,
    tstop: float,
    scheme: str = "combined",
    threads: int = 2,
    tstep: float | None = None,
    options: SimOptions | None = None,
    executor: str | StageExecutor = "serial",
    uic: bool = False,
    node_ics: dict[str, float] | None = None,
    instrument=None,
) -> PipelineResult:
    """Pipelined transient simulation of *circuit* to *tstop*.

    Args:
        scheme: "backward", "forward" or "combined".
        threads: simulated thread count (concurrent time points per stage).
        executor: "serial" (deterministic reference), "thread" (real
            thread pool), or a custom :class:`StageExecutor` instance.
            String-named executors are created and closed by this call;
            a provided instance is left open for the caller to reuse.
        instrument: optional :class:`~repro.instrument.Recorder`; the
            run's trace events (stage lanes, Newton solves, speculation
            outcomes) land there.
    """
    if scheme not in SCHEMES:
        raise SimulationError(
            f"unknown WavePipe scheme {scheme!r}; expected one of {sorted(SCHEMES)}"
        )
    if instrument is not None:
        base = options
        if base is None and isinstance(circuit, CompiledCircuit):
            base = circuit.options
        base = base or SimOptions()
        options = base.replace(instrument=instrument)
    # Only close executors this call created: a caller-provided instance
    # (e.g. a shared thread pool, or the oracle's ChaosExecutor) stays
    # open so it can serve further runs.
    owns_executor = isinstance(executor, str)
    if owns_executor:
        executor = make_executor(executor, threads)
    engine = SCHEMES[scheme](
        circuit,
        tstop,
        threads,
        tstep=tstep,
        options=options,
        executor=executor,
        uic=uic,
        node_ics=node_ics,
    )
    try:
        return engine.run()
    finally:
        if owns_executor:
            executor.close()


@dataclass
class SpeedupReport:
    """Sequential-vs-WavePipe comparison on one circuit.

    Attributes:
        speedup: sequential serial work / WavePipe virtual (pipelined)
            work, both including the DC operating point — the table metric.
        efficiency: speedup / threads.
        worst_deviation: largest relative waveform deviation (paper claim:
            indistinguishable from sequential up to integration tolerance).
    """

    sequential: TransientResult
    pipelined: PipelineResult
    scheme: str
    threads: int
    deviations: list[Deviation]

    @property
    def speedup(self) -> float:
        virtual = self.pipelined.stats.virtual_total
        if virtual <= 0:
            return 1.0
        return self.sequential.stats.total_work / virtual

    @property
    def efficiency(self) -> float:
        return self.speedup / max(self.threads, 1)

    @property
    def worst_deviation(self) -> Deviation | None:
        return worst_deviation(self.deviations)

    def metrics_delta(self) -> dict:
        """(sequential, pipelined) pairs of the headline run stats."""
        return {
            name: (getattr(self.sequential.stats, name), getattr(self.pipelined.stats, name))
            for name in DELTA_FIELDS
        }

    def summary(self) -> str:
        dev = self.worst_deviation
        dev_text = f"{dev.max_relative:.2e} rel ({dev.name})" if dev else "n/a"
        seq, pipe = self.sequential.stats, self.pipelined.stats
        text = (
            f"{self.scheme} x{self.threads}: speedup {self.speedup:.2f} "
            f"(eff {self.efficiency:.2f}), worst deviation {dev_text}, "
            f"seq pts {seq.accepted_points}, "
            f"pipe pts {pipe.accepted_points} (+{pipe.wasted_solves} wasted), "
            f"iters/pt {seq.iterations_per_point:.2f}->"
            f"{pipe.iterations_per_point:.2f}, "
            f"reject {seq.reject_rate:.1%}->{pipe.reject_rate:.1%}, "
            f"stage util {pipe.stage_utilization:.0%}"
        )
        if pipe.speculative_work > 0:
            text += (
                f", spec {pipe.speculative_hits}/{pipe.speculative_solves} hits"
                f" ({pipe.speculation_efficiency:.0%} efficient)"
            )
        return text


def compare_with_sequential(
    circuit: Circuit | CompiledCircuit,
    tstop: float,
    scheme: str = "combined",
    threads: int = 2,
    tstep: float | None = None,
    options: SimOptions | None = None,
    executor: str | StageExecutor = "serial",
    signals: list[str] | None = None,
    instrument=None,
) -> SpeedupReport:
    """Run sequential and WavePipe on the same compiled circuit and compare.

    When *instrument* is a :class:`~repro.instrument.Recorder`, both runs
    record into it.
    """
    compiled = (
        circuit
        if isinstance(circuit, CompiledCircuit)
        else compile_circuit(circuit, options)
    )
    seq = run_transient(
        compiled, tstop, tstep=tstep, options=options, instrument=instrument
    )
    pipe = run_wavepipe(
        compiled,
        tstop,
        scheme=scheme,
        threads=threads,
        tstep=tstep,
        options=options,
        executor=executor,
        instrument=instrument,
    )
    deviations = compare(seq.waveforms, pipe.waveforms, names=signals)
    return SpeedupReport(
        sequential=seq,
        pipelined=pipe,
        scheme=scheme,
        threads=threads,
        deviations=deviations,
    )
