"""repro — WavePipe (DAC 2008) reproduction.

A SPICE-class transient circuit simulator with coarse-grained parallel
time-stepping: **waveform pipelining** (backward, forward and combined
schemes) per Dong, Li & Ye, "WavePipe: Parallel transient simulation of
analog and digital circuits on multi-core shared-memory machines",
DAC 2008.

Quickstart::

    from repro import Circuit, Pulse, simulate

    c = Circuit("rc")
    c.add_vsource("V1", "in", "0", Pulse(0, 1, delay=1e-9, rise=1e-12, width=1e-3))
    c.add_resistor("R1", "in", "out", "1k")
    c.add_capacitor("C1", "out", "0", "1n")

    seq = simulate(c, analysis="transient", tstop=10e-6)  # sequential baseline
    par = simulate(c, analysis="wavepipe", tstop=10e-6,
                   scheme="combined", threads=4)
    print(par.stats.self_speedup(), par.waveforms.voltage("out"))
"""

from repro.analysis.ac import AcResult
from repro.analysis.dc import DcSweepResult
from repro.analysis.sweep import SweepResult
from repro.api import (
    ANALYSES,
    AnalysisRequest,
    AnalysisResult,
    EnsembleRequest,
    EnsembleResult,
    run_ensemble_request,
    run_request,
    simulate,
)
from repro.engine.ensemble import EnsembleTransientResult, run_ensemble_transient
from repro.partition import (
    PartitionManifest,
    WtmResult,
    WtmStats,
    partition_circuit,
    run_wtm,
    wtm_vs_monolithic,
)
from repro.verify import (
    ChaosExecutor,
    EquivalenceReport,
    FuzzReport,
    GeneratedCircuit,
    run_verification,
    verify_circuit,
)
from repro.circuit.circuit import Circuit, Subcircuit
from repro.circuit.components import (
    Bjt,
    BjtModel,
    Capacitor,
    Cccs,
    Ccvs,
    CurrentSource,
    Diode,
    DiodeModel,
    Inductor,
    Mosfet,
    MosfetModel,
    MutualInductance,
    Resistor,
    Vccs,
    Vcvs,
    VoltageSource,
)
from repro.circuit.sources import Dc, Exp, Pulse, Pwl, SampledWaveform, Sin
from repro.core.pipeline import PipelineResult, PipelineStats
from repro.core.wavepipe import SpeedupReport, compare_with_sequential
from repro.engine.transient import TransientResult, TransientStats
from repro.instrument import (
    NullRecorder,
    Recorder,
    use_recorder,
    write_chrome_trace,
    write_jsonl,
    write_trace,
)
from repro.errors import (
    CircuitError,
    ConvergenceError,
    NetlistError,
    ReproError,
    SimulationError,
    SingularMatrixError,
    TimestepError,
    UnitError,
)
from repro.netlist.parser import Netlist, parse_file, parse_netlist
from repro.utils.options import SimOptions
from repro.utils.units import format_si, parse_value
from repro.waveform.export import read_csv, to_csv_text, write_csv
from repro.waveform.waveform import Deviation, Waveform, WaveformSet, compare

__version__ = "1.0.0"

__all__ = [
    "ANALYSES",
    "AcResult",
    "AnalysisRequest",
    "AnalysisResult",
    "Bjt",
    "BjtModel",
    "Capacitor",
    "Cccs",
    "Ccvs",
    "ChaosExecutor",
    "Circuit",
    "CircuitError",
    "compare",
    "compare_with_sequential",
    "ConvergenceError",
    "CurrentSource",
    "Dc",
    "DcSweepResult",
    "Deviation",
    "Diode",
    "DiodeModel",
    "EnsembleRequest",
    "EnsembleResult",
    "EnsembleTransientResult",
    "EquivalenceReport",
    "Exp",
    "format_si",
    "FuzzReport",
    "GeneratedCircuit",
    "Inductor",
    "Mosfet",
    "MosfetModel",
    "MutualInductance",
    "Netlist",
    "NetlistError",
    "NullRecorder",
    "parse_file",
    "parse_netlist",
    "parse_value",
    "PartitionManifest",
    "partition_circuit",
    "PipelineResult",
    "PipelineStats",
    "Pulse",
    "Pwl",
    "Recorder",
    "ReproError",
    "Resistor",
    "read_csv",
    "run_ensemble_request",
    "run_ensemble_transient",
    "run_request",
    "run_verification",
    "run_wtm",
    "simulate",
    "SampledWaveform",
    "SimOptions",
    "SimulationError",
    "Sin",
    "SingularMatrixError",
    "SpeedupReport",
    "Subcircuit",
    "SweepResult",
    "TimestepError",
    "TransientResult",
    "TransientStats",
    "to_csv_text",
    "UnitError",
    "use_recorder",
    "verify_circuit",
    "Vccs",
    "Vcvs",
    "VoltageSource",
    "Waveform",
    "WaveformSet",
    "write_chrome_trace",
    "write_csv",
    "write_jsonl",
    "write_trace",
    "WtmResult",
    "WtmStats",
    "wtm_vs_monolithic",
]
