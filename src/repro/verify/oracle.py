"""Differential oracle: prove scheme x executor x reuse equivalence.

The paper's central claim is that waveform pipelining parallelises a
transient *without* changing what any accepted point satisfies — unlike
relaxation methods, which trade exactness for parallelism. The oracle
machine-checks that claim: one circuit is simulated through the full
configuration lattice

    {sequential, backward, forward, combined}
      x {serial, thread} executors
      x {jacobian_reuse off, on}
      (+ chaos-scheduled variants of every scheme)

and every candidate's waveforms are aligned against the sequential
reuse-off reference on a common time grid. The result is a structured
:class:`EquivalenceReport` with per-signal worst deviations, a tolerance
ladder classification per configuration, and a single pass/fail verdict.

Reports are deliberately free of wall-clock data: two runs with the same
seed must produce byte-identical JSON (:meth:`EquivalenceReport.to_json`),
which is what makes fuzz results diffable and CI failures replayable.

:func:`run_verification` drives the oracle over freshly drawn circuits
from :mod:`repro.verify.generators` — the fuzzing loop behind
``python -m repro verify --trials N --seed S``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from repro.core.wavepipe import SCHEMES, run_wavepipe
from repro.engine.transient import run_transient
from repro.errors import SimulationError
from repro.instrument.events import VERIFY_TRIAL
from repro.instrument.recorder import resolve_recorder
from repro.mna.compiler import CompiledCircuit, compile_circuit
from repro.parallel.executors import make_executor
from repro.verify.chaos import ChaosExecutor
from repro.verify.generators import FAMILIES, GeneratedCircuit, draw_circuit
from repro.waveform.waveform import compare, worst_deviation

#: Relative-deviation thresholds, tightest first. A configuration's
#: ``tier`` is the first rung its worst deviation fits under; ``beyond``
#: means it cleared no rung (and certainly fails any sane tolerance).
TOLERANCE_LADDER = (
    ("exact", 0.0),
    ("machine", 1e-12),
    ("tight", 1e-6),
    ("loose", 1e-3),
    ("lte", 2e-2),
)

#: Default pass/fail tolerance: the LTE rung — pipelining may legally
#: pick different accepted points, so interpolation differences up to
#: integration tolerance are expected; anything beyond is a real bug.
DEFAULT_TOLERANCE = 2e-2

#: Oracle runs cap the step at tstop / MIN_GRID_POINTS. Adaptive runs on
#: smooth stretches otherwise take steps so large that *linear
#: interpolation between accepted points* — not solver disagreement —
#: dominates the comparison, burying real deviations in grid noise.
MIN_GRID_POINTS = 128

#: Integration reltol the oracle tightens to (unless explicit options are
#: given): verification-grade accuracy keeps legal tolerance-scaled
#: drift between configurations far below :data:`DEFAULT_TOLERANCE`.
VERIFY_RELTOL = 1e-4


def classify_tier(max_relative: float) -> str:
    """Name of the tightest ladder rung *max_relative* fits under."""
    for name, level in TOLERANCE_LADDER:
        if max_relative <= level:
            return name
    return "beyond"


@dataclass(frozen=True)
class ConfigSpec:
    """One point of the configuration lattice.

    ``analysis`` is ``"sequential"`` or a WavePipe scheme name;
    ``executor`` is None for sequential runs; ``chaos_seed`` switches the
    run onto a :class:`~repro.verify.chaos.ChaosExecutor` wrapping the
    named executor. ``one_wide`` runs the scheme at ``threads=1``, where
    its stage *is* the sequential step: such a point must reproduce the
    reference exactly, not merely within the LTE tolerance.
    """

    analysis: str
    executor: str | None = None
    reuse: bool = False
    chaos_seed: int | None = None
    one_wide: bool = False

    @property
    def label(self) -> str:
        reuse = "on" if self.reuse else "off"
        if self.analysis == "sequential":
            return f"sequential[reuse={reuse}]"
        chaos = f"+chaos{self.chaos_seed}" if self.chaos_seed is not None else ""
        width = "x1" if self.one_wide else ""
        return f"{self.analysis}/{self.executor}{width}{chaos}[reuse={reuse}]"


def configuration_lattice(chaos: bool = True, schemes=None) -> list[ConfigSpec]:
    """The full lattice, reference (sequential, reuse off) first."""
    schemes = tuple(schemes) if schemes is not None else tuple(sorted(SCHEMES))
    unknown = set(schemes) - set(SCHEMES)
    if unknown:
        raise SimulationError(
            f"unknown WavePipe scheme(s) {sorted(unknown)}; expected among {sorted(SCHEMES)}"
        )
    configs = [
        ConfigSpec("sequential", reuse=False),
        ConfigSpec("sequential", reuse=True),
    ]
    for scheme in schemes:
        for executor in ("serial", "thread"):
            for reuse in (False, True):
                configs.append(ConfigSpec(scheme, executor, reuse))
    for scheme in schemes:
        configs.append(ConfigSpec(scheme, "serial", False, one_wide=True))
    if chaos:
        for index, scheme in enumerate(schemes):
            configs.append(ConfigSpec(scheme, "serial", False, chaos_seed=index))
    return configs


@dataclass
class ConfigResult:
    """Deviation of one configuration against the reference run."""

    config: str
    accepted_points: int
    deviations: list[dict]
    worst_signal: str | None
    worst_relative: float
    worst_abs: float
    tier: str
    passed: bool

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "accepted_points": self.accepted_points,
            "deviations": self.deviations,
            "worst_signal": self.worst_signal,
            "worst_relative": self.worst_relative,
            "worst_abs": self.worst_abs,
            "tier": self.tier,
            "passed": self.passed,
        }


@dataclass
class EquivalenceReport:
    """Full lattice verdict for one circuit.

    Contains no wall-clock or host-dependent data: same circuit + same
    seed => byte-identical :meth:`to_json` output, on any rerun.
    """

    circuit: str
    family: str | None
    seed: int | None
    tstop: float
    threads: int
    tolerance: float
    reference: str
    reference_points: int
    configs: list[ConfigResult] = field(default_factory=list)
    #: Set when the trial aborted before producing a verdict (solver
    #: blow-up, singular matrix...). An errored trial is a failed trial.
    error: str | None = None

    @property
    def passed(self) -> bool:
        return self.error is None and all(result.passed for result in self.configs)

    @property
    def failures(self) -> list[ConfigResult]:
        return [result for result in self.configs if not result.passed]

    @property
    def worst(self) -> ConfigResult | None:
        if not self.configs:
            return None
        return max(self.configs, key=lambda r: r.worst_relative)

    def to_dict(self) -> dict:
        return {
            "circuit": self.circuit,
            "family": self.family,
            "seed": self.seed,
            "tstop": self.tstop,
            "threads": self.threads,
            "tolerance": self.tolerance,
            "reference": self.reference,
            "reference_points": self.reference_points,
            "passed": self.passed,
            "error": self.error,
            "configs": [result.to_dict() for result in self.configs],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    def summary(self) -> str:
        if self.error is not None:
            return f"{self.circuit}: ERROR — {self.error}"
        worst = self.worst
        verdict = "PASS" if self.passed else f"FAIL({len(self.failures)} configs)"
        worst_text = (
            f"worst {worst.worst_relative:.3e} rel "
            f"[{worst.tier}] ({worst.config}: {worst.worst_signal})"
            if worst is not None
            else "no configs"
        )
        return (
            f"{self.circuit}: {verdict} — {len(self.configs)} configs, "
            f"{worst_text}, ref {self.reference_points} pts"
        )


def _chaos_executor_seed(circuit_seed: int | None, chaos_seed: int) -> int:
    """Mix the trial seed into the chaos stream (stable across reruns)."""
    base = 0 if circuit_seed is None else int(circuit_seed)
    return (base * 1_000_003 + chaos_seed) % (2**31)


def verify_circuit(
    circuit,
    tstop: float | None = None,
    threads: int = 3,
    tolerance: float = DEFAULT_TOLERANCE,
    chaos: bool = True,
    schemes=None,
    options=None,
    instrument=None,
) -> EquivalenceReport:
    """Run one circuit through the whole lattice and report equivalence.

    Args:
        circuit: a :class:`~repro.verify.generators.GeneratedCircuit`
            (carries its own ``tstop``), a plain ``Circuit``, or an
            already-compiled circuit.
        tstop: transient window; required unless *circuit* is generated.
        threads: worker count for the pipelined configurations.
        tolerance: pass/fail bound on the worst relative deviation.
        chaos: include chaos-scheduled serial variants of every scheme.
        schemes: optional subset of WavePipe schemes to verify.
        instrument: optional Recorder; the oracle books ``verify.*``
            counters and a ``verify_trial`` event per circuit into it.

    Returns:
        The structured :class:`EquivalenceReport` (never raises on a
        deviation failure — inspect ``report.passed``).
    """
    generated = circuit if isinstance(circuit, GeneratedCircuit) else None
    if generated is not None:
        circuit = generated.circuit
        tstop = generated.tstop if tstop is None else tstop
    if tstop is None or tstop <= 0:
        raise SimulationError("verify_circuit requires tstop > 0 (or a GeneratedCircuit)")
    compiled = (
        circuit
        if isinstance(circuit, CompiledCircuit)
        else compile_circuit(circuit, options)
    )
    base_options = options or compiled.options
    if options is None and base_options.reltol > VERIFY_RELTOL:
        # Scheme-vs-scheme deviation scales with the integration
        # tolerance (each run accumulates its own LTE-sized error), so
        # loose deck tolerances would blur real bugs into the pass band.
        base_options = base_options.replace(reltol=VERIFY_RELTOL)
    max_step = tstop / MIN_GRID_POINTS
    if base_options.max_step is None or base_options.max_step > max_step:
        base_options = base_options.replace(max_step=max_step)
    rec = resolve_recorder(instrument)
    configs = configuration_lattice(chaos=chaos, schemes=schemes)

    def run_config(spec: ConfigSpec):
        run_options = base_options.replace(jacobian_reuse=spec.reuse)
        if rec.enabled:
            # aggregate every run's engine counters (and the chaos
            # executor's) into the oracle's recorder
            run_options = run_options.replace(instrument=rec)
        if spec.analysis == "sequential":
            return run_transient(compiled, tstop, options=run_options)
        executor = spec.executor
        chaos_executor = None
        if spec.chaos_seed is not None:
            chaos_executor = ChaosExecutor(
                make_executor(spec.executor, threads),
                seed=_chaos_executor_seed(
                    generated.seed if generated is not None else None,
                    spec.chaos_seed,
                ),
            )
            executor = chaos_executor
        try:
            return run_wavepipe(
                compiled,
                tstop,
                scheme=spec.analysis,
                threads=1 if spec.one_wide else threads,
                options=run_options,
                executor=executor,
            )
        finally:
            if chaos_executor is not None:
                chaos_executor.close()

    reference_spec, candidates = configs[0], configs[1:]
    reference = run_config(reference_spec)

    results: list[ConfigResult] = []
    for spec in candidates:
        candidate = run_config(spec)
        deviations = compare(reference.waveforms, candidate.waveforms)
        worst = worst_deviation(deviations)
        worst_rel = worst.max_relative if worst is not None else 0.0
        results.append(
            ConfigResult(
                config=spec.label,
                accepted_points=candidate.stats.accepted_points,
                deviations=[
                    {
                        "name": dev.name,
                        "max_abs": dev.max_abs,
                        "rms": dev.rms,
                        "max_relative": dev.max_relative,
                    }
                    for dev in deviations
                ],
                worst_signal=worst.name if worst is not None else None,
                worst_relative=worst_rel,
                worst_abs=worst.max_abs if worst is not None else 0.0,
                tier=classify_tier(worst_rel),
                passed=worst_rel <= (0.0 if spec.one_wide else tolerance),
            )
        )

    report = EquivalenceReport(
        circuit=generated.name if generated is not None else compiled.title,
        family=generated.family if generated is not None else None,
        seed=generated.seed if generated is not None else None,
        tstop=float(tstop),
        threads=threads,
        tolerance=tolerance,
        reference=reference_spec.label,
        reference_points=reference.stats.accepted_points,
        configs=results,
    )
    if rec.enabled:
        rec.count("verify.circuits")
        rec.count("verify.configs_run", len(configs))
        rec.count("verify.circuits_passed" if report.passed else "verify.circuits_failed")
        rec.count("verify.config_failures", len(report.failures))
        worst = report.worst
        rec.event(
            VERIFY_TRIAL,
            circuit=report.circuit,
            passed=report.passed,
            worst_relative=worst.worst_relative if worst is not None else 0.0,
        )
    return report


@dataclass
class FuzzReport:
    """Aggregate of one ``repro verify`` fuzzing campaign."""

    trials: int
    seed: int
    threads: int
    tolerance: float
    chaos: bool
    families: list[str]
    reports: list[EquivalenceReport] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(report.passed for report in self.reports)

    @property
    def failures(self) -> list[EquivalenceReport]:
        return [report for report in self.reports if not report.passed]

    def to_dict(self) -> dict:
        return {
            "trials": self.trials,
            "seed": self.seed,
            "threads": self.threads,
            "tolerance": self.tolerance,
            "chaos": self.chaos,
            "families": self.families,
            "passed": self.passed,
            "reports": [report.to_dict() for report in self.reports],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    def summary(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        configs = sum(len(report.configs) for report in self.reports)
        return (
            f"verify: {verdict} — {len(self.reports)}/{self.trials} trials, "
            f"{configs} candidate configs checked, "
            f"{len(self.failures)} trial failure(s), seed {self.seed}"
        )


def run_verification(
    trials: int = 10,
    seed: int = 0,
    threads: int = 3,
    tolerance: float = DEFAULT_TOLERANCE,
    chaos: bool = True,
    families=None,
    schemes=None,
    instrument=None,
    on_report=None,
) -> FuzzReport:
    """Fuzz the configuration lattice over *trials* fresh random circuits.

    Each trial draws its own circuit from a per-trial seed derived from
    *seed*, so the campaign is reproducible end-to-end: rerunning with
    the same arguments produces a byte-identical :meth:`FuzzReport.to_json`.

    Args:
        on_report: optional callback invoked with each trial's
            :class:`EquivalenceReport` as it completes (CLI progress).
    """
    if trials < 1:
        raise SimulationError("run_verification requires trials >= 1")
    rec = resolve_recorder(instrument)
    family_names = sorted(families) if families is not None else sorted(FAMILIES)
    master = np.random.default_rng(seed)
    report = FuzzReport(
        trials=trials,
        seed=seed,
        threads=threads,
        tolerance=tolerance,
        chaos=chaos,
        families=family_names,
    )
    for _ in range(trials):
        trial_seed = int(master.integers(0, 2**31))
        generated = draw_circuit(trial_seed, families=family_names)
        try:
            trial = verify_circuit(
                generated,
                threads=threads,
                tolerance=tolerance,
                chaos=chaos,
                schemes=schemes,
                instrument=instrument,
            )
        except Exception as exc:
            # A blowing-up trial must not abort the campaign: record it
            # as a failed trial so the remaining circuits still run and
            # the campaign (and CLI exit code) reports the failure.
            trial = EquivalenceReport(
                circuit=generated.name,
                family=generated.family,
                seed=generated.seed,
                tstop=float(generated.tstop),
                threads=threads,
                tolerance=tolerance,
                reference=configuration_lattice(chaos=False)[0].label,
                reference_points=0,
                error=f"{type(exc).__name__}: {exc}",
            )
            if rec.enabled:
                rec.count("verify.trial_errors")
        report.reports.append(trial)
        if on_report is not None:
            on_report(trial)
    if rec.enabled:
        rec.count("verify.trials", trials)
    return report
