"""The parallel-SPICE baselines WavePipe is contrasted against.

The fine-grained Amdahl model lives here; the waveform-relaxation
baseline is the degenerate configuration of
:func:`repro.partition.run_wtm` (Gauss-Jacobi, no pipelining, one
window).
"""
